package fleet

import (
	"runtime"
	"testing"
)

// TestSoakBoundedMemory is the bounded-memory contract: heap usage plateaus
// as the simulated horizon extends. We run the same small population over a
// short and a long horizon and require the long run's live heap to stay
// within a modest factor of the short run's — nothing may accumulate per
// simulated day.
func TestSoakBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	spec := Spec{
		Homes:    60,
		Workers:  2,
		Days:     2,
		Seed:     11,
		Variants: 2,
	}
	short := soakHeap(t, spec)
	spec.Days = 16 // 8x the horizon
	long := soakHeap(t, spec)
	t.Logf("heap after 2 days: %d bytes; after 16 days: %d bytes", short, long)
	// Allow slack for allocator noise, but an 8x horizon must not cost
	// anywhere near 8x the memory.
	if long > 2*short+(8<<20) {
		t.Fatalf("heap grew with horizon: %d bytes at 16 days vs %d at 2 days", long, short)
	}
}

// soakHeap runs the spec day by day, checkpointing the live heap at every
// day boundary, and returns the high-water mark.
func soakHeap(t *testing.T, spec Spec) uint64 {
	t.Helper()
	r, err := newRunner(spec.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	var peak uint64
	for day := range spec.Days {
		if err := r.runDay(day); err != nil {
			t.Fatal(err)
		}
		// GC first so the checkpoint measures live bytes, not allocation
		// turnover.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
	}
	return peak
}
