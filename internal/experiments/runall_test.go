package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestOptionsSeedSentinel(t *testing.T) {
	if got := (Options{}).seed(); got != 42 {
		t.Errorf("default seed = %d, want 42", got)
	}
	if got := (Options{Seed: 7}).seed(); got != 7 {
		t.Errorf("explicit seed = %d, want 7", got)
	}
	if got := (Options{Seed: 0, SeedSet: true}).seed(); got != 0 {
		t.Errorf("SeedSet zero seed = %d, want 0", got)
	}
}

func TestForExperimentDerivation(t *testing.T) {
	base := Options{Seed: 42, Quick: true}
	d1 := base.ForExperiment("f1")
	d2 := base.ForExperiment("f1")
	if d1 != d2 {
		t.Errorf("derivation not deterministic: %+v vs %+v", d1, d2)
	}
	if !d1.SeedSet {
		t.Error("derived options must set SeedSet")
	}
	if !d1.Quick {
		t.Error("derivation must preserve Quick")
	}
	if d1.Seed == base.Seed {
		t.Error("derived seed equals base seed")
	}
	if other := base.ForExperiment("f2"); other.Seed == d1.Seed {
		t.Errorf("f1 and f2 derived the same seed %d", d1.Seed)
	}
	// The zero-seed default and an explicit 42 must derive identically,
	// while an explicit zero (SeedSet) is a different base.
	if a, b := (Options{}).ForExperiment("t1"), (Options{Seed: 42}).ForExperiment("t1"); a != b {
		t.Errorf("default and explicit 42 derive differently: %+v vs %+v", a, b)
	}
	if a, b := (Options{SeedSet: true}).ForExperiment("t1"), (Options{Seed: 42}).ForExperiment("t1"); a == b {
		t.Error("explicit zero seed derived the same stream as 42")
	}
}

// TestRunAllDeterministicAcrossWorkers runs the full registry at quick
// scale with workers=1 (the sequential baseline), 2, and NumCPU, and
// asserts the reports — structs and rendered bytes — are identical. Run
// under -race (make check) this is also the suite's race-detector
// coverage.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry concurrency sweep")
	}
	ids := AllIDs()
	opts := Options{Quick: true, Seed: 42}

	baseline, err := RunAll(context.Background(), ids, opts, RunAllOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range baseline {
		if rep == nil {
			t.Fatalf("baseline %s is nil", ids[i])
		}
	}
	// The workers=1 pool must agree with a plain sequential Run over the
	// same derived options (spot-checked on one id to keep the test cheap).
	direct, err := Run("f1", opts.ForExperiment("f1"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := direct.Render(), baseline[0].Render(); got != want {
		t.Errorf("RunAll(workers=1) f1 differs from sequential Run:\n%s\nvs\n%s", want, got)
	}

	for _, workers := range []int{2, runtime.NumCPU()} {
		got, err := RunAll(context.Background(), ids, opts, RunAllOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ids {
			if !reflect.DeepEqual(baseline[i], got[i]) {
				t.Errorf("workers=%d: report %s differs from sequential baseline", workers, ids[i])
			}
			if baseline[i].Render() != got[i].Render() {
				t.Errorf("workers=%d: rendered %s not byte-identical", workers, ids[i])
			}
		}
	}
}

func TestRunAllCollectsErrors(t *testing.T) {
	ids := []string{"zz", "f1", "qq"}
	reports, err := RunAll(context.Background(), ids, Options{Quick: true, Seed: 42}, RunAllOptions{Workers: 2})
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("error = %v, want ErrUnknown", err)
	}
	for _, id := range []string{"zz", "qq"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("joined error does not name %s: %v", id, err)
		}
	}
	if reports[0] != nil || reports[2] != nil {
		t.Error("failed experiments must leave nil report slots")
	}
	if reports[1] == nil || reports[1].ID != "f1" {
		t.Errorf("f1 should still run despite sibling failures: %+v", reports[1])
	}
}

func TestRunAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reports, err := RunAll(ctx, []string{"f1", "t1"}, Options{Quick: true}, RunAllOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	for i, rep := range reports {
		if rep != nil {
			t.Errorf("report %d generated after cancellation", i)
		}
	}
}

func TestRunAllEmpty(t *testing.T) {
	reports, err := RunAll(context.Background(), nil, Options{}, RunAllOptions{})
	if err != nil || len(reports) != 0 {
		t.Errorf("RunAll(nil ids) = %v, %v", reports, err)
	}
}

func TestCacheKeyCanonicalizesSeed(t *testing.T) {
	// {Seed: 0} defaults to 42, so it must share a key with an explicit 42.
	a := Options{}.CacheKey("f1")
	b := Options{Seed: 42, SeedSet: true}.CacheKey("f1")
	if a != b {
		t.Errorf("default-seed key %q != explicit-42 key %q", a, b)
	}
	distinct := map[string]string{
		"literal zero seed": Options{SeedSet: true}.CacheKey("f1"),
		"other seed":        Options{Seed: 7}.CacheKey("f1"),
		"quick":             Options{Quick: true}.CacheKey("f1"),
		"other id":          Options{}.CacheKey("t1"),
	}
	for name, k := range distinct {
		if k == a {
			t.Errorf("%s collides with the base key %q", name, a)
		}
	}
}

func TestRunContext(t *testing.T) {
	if _, err := RunContext(context.Background(), "zz", Options{}); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown id error = %v", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(cancelled, "f1", Options{Quick: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled error = %v", err)
	}
	rep, err := RunContext(context.Background(), "t6", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Same options must reproduce the same report as the plain Run path.
	plain, err := Run("t6", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Render() != plain.Render() {
		t.Error("RunContext output differs from Run for identical options")
	}
}

// TestFanOutsDeterministicAcrossGOMAXPROCS renders the experiments whose
// world builders and attacks fan out through internal/par at GOMAXPROCS 1
// (every fan-out runs inline, in index order) and 4 (on worker goroutines)
// and requires identical bytes. The world memo is flushed before each pass
// so every world, and every fan-out in it, is built in both passes.
func TestFanOutsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("renders six experiments twice from cold worlds")
	}
	defer SetWorldMemo(true)
	ids := []string{"f2", "f5", "t5", "t6", "t8", "t9"}
	opts := Options{Quick: true, Seed: 42}
	render := func(procs int) []string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		SetWorldMemo(true)
		out := make([]string, len(ids))
		for i, id := range ids {
			rep, err := Run(id, opts.ForExperiment(id))
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d %s: %v", procs, id, err)
			}
			out[i] = rep.Render()
		}
		return out
	}
	parallel, serial := render(4), render(1)
	for i, id := range ids {
		if serial[i] != parallel[i] {
			t.Errorf("%s differs between GOMAXPROCS 1 and 4:\n%s\nvs\n%s", id, serial[i], parallel[i])
		}
	}
}
