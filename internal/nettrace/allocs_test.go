//go:build !race

package nettrace

import (
	"testing"
	"time"
)

// TestExtractFeaturesAllocs pins BenchmarkExtractFeatures' allocations per
// call. A change that lowers the count lowers the ceiling. Race builds are
// left out: under the race detector sync.Pool drops items at random, so the
// counts of pooled scratch differ. Simulate has no ceiling: its count
// varies by a few allocations from run to run.
func TestExtractFeaturesAllocs(t *testing.T) {
	cap := t9CompromisedCapture(t)
	const ceiling = 193
	got := testing.AllocsPerRun(10, func() {
		if _, err := ExtractFeatures(cap, 10*time.Minute); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("ExtractFeatures: %v allocs per call, ceiling %d", got, ceiling)
	}
}
