package nettrace

import (
	"testing"
	"time"

	"privmem/internal/home"
)

// BenchmarkExtractFeatures measures feature extraction over the capture
// the §IV gateway's detection leg scans (t9 at the default seed 42): three
// days of the default home, coupled to a simulated household's activity,
// with a camera exfiltrating, a plug scanning and a bulb in a botnet from
// hour 30, bucketed into the monitor's 10-minute windows.
func BenchmarkExtractFeatures(b *testing.B) {
	const seed = 42
	hcfg := home.DefaultConfig(seed + 21)
	hcfg.Days = 3
	tr, err := home.Simulate(hcfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(seed + 4)
	cfg.Days = 3
	cfg.Activity = tr.Active
	at := cfg.Start.Add(30 * time.Hour)
	cfg.Compromises = []Compromise{
		{Device: "camera-02", At: at, Kind: CompromiseExfil},
		{Device: "smart-plug-03", At: at, Kind: CompromiseScan},
		{Device: "bulb-05", At: at, Kind: CompromiseBot},
	}
	cap, err := Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractFeatures(cap, 10*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}
