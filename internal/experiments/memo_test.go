package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
)

// memoTestIDs are world-backed experiments whose quick-scale runs are cheap
// enough to race repeatedly. Their memo keys cover four distinct builders
// (f2 and t2 share the nilm builder but derive different RunAll seeds, so
// they still produce two keys).
var memoTestIDs = []string{"f2", "t2", "t4", "t10"}

// memoKeyForID maps a suite id to the world-memo key its generator uses
// under RunAll's derived options.
func memoKeyForID(id string, opts Options) string {
	builder := map[string]string{
		"f2": "nilm", "t2": "nilm", "t4": "battery", "t10": "localiot",
	}[id]
	return opts.ForExperiment(id).CacheKey(builder)
}

// TestWorldMemoBuildsOnceUnderConcurrentRunAll races several RunAll
// invocations at mixed worker counts and checks each (seed, quick) world
// was built exactly once — the singleflight guarantee — and that every
// suite produced identical reports.
func TestWorldMemoBuildsOnceUnderConcurrentRunAll(t *testing.T) {
	SetWorldMemo(true) // flush any worlds cached by earlier tests
	resetWorldMemoCounters()
	defer SetWorldMemo(true)

	opts := Options{Quick: true, Seed: 42}
	workerCounts := []int{1, 2, runtime.NumCPU() + 1}
	rendered := make([][]string, len(workerCounts))
	var wg sync.WaitGroup
	for wi, workers := range workerCounts {
		wg.Add(1)
		go func(wi, workers int) {
			defer wg.Done()
			reports, err := RunAll(context.Background(), memoTestIDs, opts,
				RunAllOptions{Workers: workers})
			if err != nil {
				t.Errorf("workers=%d: %v", workers, err)
				return
			}
			for _, rep := range reports {
				rendered[wi] = append(rendered[wi], rep.Render())
			}
		}(wi, workers)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for wi := 1; wi < len(rendered); wi++ {
		for i := range rendered[0] {
			if rendered[wi][i] != rendered[0][i] {
				t.Errorf("report %s differs between concurrent suite runs", memoTestIDs[i])
			}
		}
	}
	for _, id := range memoTestIDs {
		key := memoKeyForID(id, opts)
		if got := worldBuildCount(key); got != 1 {
			t.Errorf("world %s built %d times across %d concurrent suites, want exactly 1",
				key, got, len(workerCounts))
		}
	}
}

// TestWorldMemoSingleflightSharesOneWorld checks concurrent callers of one
// builder share a single build and receive the same world.
func TestWorldMemoSingleflightSharesOneWorld(t *testing.T) {
	SetWorldMemo(true)
	resetWorldMemoCounters()
	defer SetWorldMemo(true)

	opts := Options{Quick: true, Seed: 1234, SeedSet: true}
	const callers = 8
	worlds := make([]*batteryWorkload, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := batteryWorld(opts)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			worlds[i] = w
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < callers; i++ {
		if worlds[i] != worlds[0] {
			t.Fatalf("caller %d got a different world instance", i)
		}
	}
	if got := worldBuildCount(opts.CacheKey("battery")); got != 1 {
		t.Fatalf("built %d times, want 1", got)
	}
}

// TestWorldMemoErrorNotCached forces a build failure and checks (a) every
// concurrent caller observes the error, and (b) the failure is not cached:
// the next call rebuilds and succeeds.
func TestWorldMemoErrorNotCached(t *testing.T) {
	SetWorldMemo(true)
	resetWorldMemoCounters()
	defer func() {
		worldBuildErrHook = nil
		SetWorldMemo(true)
	}()

	opts := Options{Quick: true, Seed: 99, SeedSet: true}
	key := opts.CacheKey("battery")
	boom := errors.New("forced world-build failure")
	worldBuildErrHook = func(k string) error {
		if k == key {
			return boom
		}
		return nil
	}

	const callers = 4
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = batteryWorld(opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want the forced failure", i, err)
		}
	}

	worldBuildErrHook = nil
	w, err := batteryWorld(opts)
	if err != nil {
		t.Fatalf("retry after failure: %v (failure was cached)", err)
	}
	if w == nil || w.load == nil {
		t.Fatal("retry returned an empty world")
	}
	if got := worldBuildCount(key); got < 2 {
		t.Fatalf("build count %d, want >= 2 (failed build + successful retry)", got)
	}
}

// TestWorldMemoDisabledRebuilds checks SetWorldMemo(false) really disables
// caching: two calls build twice (and still agree).
func TestWorldMemoDisabledRebuilds(t *testing.T) {
	SetWorldMemo(false)
	resetWorldMemoCounters()
	defer SetWorldMemo(true)

	opts := Options{Quick: true, Seed: 7, SeedSet: true}
	w1, err := batteryWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := batteryWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	if w1 == w2 {
		t.Fatal("memo disabled but calls shared one world instance")
	}
	if got := worldBuildCount(opts.CacheKey("battery")); got != 2 {
		t.Fatalf("build count %d, want 2 with memo disabled", got)
	}
}
