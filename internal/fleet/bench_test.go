package fleet

import (
	"runtime"
	"testing"
)

// BenchmarkFleetStreaming measures the fleet run end to end at a small
// population and reports the headline columns the BENCH_fleet.json snapshot
// tracks: ingest throughput in homes/sec, live bytes/home, and the median
// per-home NIOM accuracy as the leakage signal's sanity anchor. Timing uses
// b.Elapsed, never wall-clock reads inside the library (the library result
// must stay a pure function of the spec).
func BenchmarkFleetStreaming(b *testing.B) {
	spec := Spec{
		Homes:    2000,
		Workers:  4,
		Days:     2,
		Seed:     42,
		Variants: 4,
	}
	b.ReportAllocs()
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var res *Result
	for i := 0; i < b.N; i++ {
		r, err := Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	// Collect the runs' garbage so the delta counts only what the last
	// Result keeps live.
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(res)

	secPerRun := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(spec.Homes)/secPerRun, "homes/sec")
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if live < 0 {
		live = 0
	}
	b.ReportMetric(float64(live)/float64(spec.Homes), "bytes/home")
	b.ReportMetric(res.NIOMAccuracy.P50, "niom_acc_p50")
	// Leakage latency: how much simulated time passes before the attack has
	// a per-home verdict — one analysis window.
	b.ReportMetric(Window.Seconds(), "leak_latency_sec")
}
