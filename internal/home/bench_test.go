package home

import (
	"testing"
	"time"
)

// BenchmarkSimulateWeek measures a full 7-day household simulation at
// 1-minute resolution (the unit of work behind most experiments).
func BenchmarkSimulateWeek(b *testing.B) {
	b.ReportAllocs()
	cfg := DefaultConfig(42)
	cfg.Days = 7
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures the NILM workload's home (f2/t2): 5 days at a
// 10-second step, 43,200 steps, where the per-step occupancy fill shows.
func BenchmarkSimulate(b *testing.B) {
	b.ReportAllocs()
	cfg := DefaultConfig(42)
	cfg.Days = 5
	cfg.Step = 10 * time.Second
	cfg.IncludeWaterHeater = false
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
