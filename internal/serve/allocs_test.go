//go:build !race

package serve

import "testing"

// TestReportCacheHitAllocs pins BenchmarkReportCacheHit's allocations per
// request: a cache hit through Handler(), recorder and request included. A
// change that lowers the count lowers the ceiling. Race builds are left
// out: under the race detector sync.Pool drops items at random, so the
// counts of pooled scratch differ.
func TestReportCacheHitAllocs(t *testing.T) {
	h := warmHandler(t)
	const ceiling = 30
	got := testing.AllocsPerRun(100, func() { benchGet(t, h, hitPath) })
	if got > ceiling {
		t.Errorf("cache hit: %v allocs per request, ceiling %d", got, ceiling)
	}
}
