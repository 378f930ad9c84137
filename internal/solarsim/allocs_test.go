//go:build !race

package solarsim

import "testing"

// TestGridFleetAllocs pins BenchmarkGridFleet's allocations per pass. A
// change that lowers the count lowers the ceiling. Race builds are left
// out: under the race detector sync.Pool drops items at random, so the
// counts of pooled scratch differ.
func TestGridFleetAllocs(t *testing.T) {
	pass := gridFleet(t)
	const ceiling = 22
	if got := testing.AllocsPerRun(3, pass); got > ceiling {
		t.Errorf("grid fleet: %v allocs per pass, ceiling %d", got, ceiling)
	}
}
