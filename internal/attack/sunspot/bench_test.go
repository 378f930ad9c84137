package sunspot

import (
	"testing"
	"time"

	"privmem/internal/solarsim"
)

// BenchmarkLocalizeCold measures one Localize of a 90-day 1-minute trace
// (Figure 5's quick span). Each Localize builds a fresh forward model, as
// in a fresh process.
func BenchmarkLocalizeCold(b *testing.B) {
	gen, err := solarsim.Generate(site(), nil, ssStart, 90, time.Minute, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Localize(gen, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
