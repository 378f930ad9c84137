package solarsim

import (
	"testing"
	"time"

	"privmem/internal/weather"
)

// BenchmarkGridFleet measures Figure 5's quick-scale generation: five
// sites of the benchmark fleet, 90 days at 1-minute steps under one
// weather field, all generated on one shared time grid (the grid build is
// part of each iteration, as it is of each world build).
func BenchmarkGridFleet(b *testing.B) {
	const days = 90
	start := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	field, err := weather.NewField(weather.DefaultFieldConfig(942), start, days*24, 41)
	if err != nil {
		b.Fatal(err)
	}
	sites := Fleet(49)[:5]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid, err := NewGrid(start, days, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		for j, site := range sites {
			if _, err := grid.Generate(site, field, int64(42+j)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
