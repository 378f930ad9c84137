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

// renderAll runs ids through RunAll at the given worker count and returns
// the reports, their rendered bytes ("" for a failed slot) and the error.
func renderAll(t *testing.T, ids []string, opts Options, workers int) ([]*Report, []string, error) {
	t.Helper()
	reports, err := RunAll(context.Background(), ids, opts, RunAllOptions{Workers: workers})
	if len(reports) != len(ids) {
		t.Fatalf("workers=%d: %d report slots for %d ids", workers, len(reports), len(ids))
	}
	bodies := make([]string, len(reports))
	for i, rep := range reports {
		if rep != nil {
			bodies[i] = rep.Render()
		}
	}
	return reports, bodies, err
}

// TestRunAllDeterministicAcrossWorkers is the suite-determinism law on the
// full registry: at quick scale and seed 42, RunAll with workers=1 (the
// sequential baseline), 2 and NumCPU renders identical reports — structs
// and rendered bytes. Run under -race (make check) this is also the suite's
// race-detector coverage.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry concurrency sweep")
	}
	checkRunAllDeterministic(t, AllIDs(), Options{Quick: true, Seed: 42}, []int{1, 2, runtime.NumCPU()})
}

// TestPropRunAllDeterministic is the same law at other seeds, on a cheap
// cross-section (a figure generator, an attack table and the zk-billing
// table): the literal seed 0, which must not fall back to the default, and
// seed 1, each at 1, 2 and 5 workers.
func TestPropRunAllDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("suite determinism sweep is not short")
	}
	for _, seed := range []int64{0, 1} {
		checkRunAllDeterministic(t, []string{"f1", "t1", "t6"}, Options{Quick: true, Seed: seed, SeedSet: true}, []int{1, 2, 5})
	}
}

// checkRunAllDeterministic runs ids at each worker count and requires every
// run to equal the first (workers[0] == 1, the sequential baseline), which
// must in turn agree with a plain sequential Run of the first id.
func checkRunAllDeterministic(t *testing.T, ids []string, opts Options, workers []int) {
	t.Helper()
	baseline, want, err := renderAll(t, ids, opts, workers[0])
	if err != nil {
		t.Fatalf("seed %d: %v", opts.Seed, err)
	}
	// The workers=1 pool must agree with a plain sequential Run over the
	// same derived options (spot-checked on one id to keep the test cheap).
	direct, err := Run(ids[0], opts.ForExperiment(ids[0]))
	if err != nil {
		t.Fatal(err)
	}
	if got := direct.Render(); got != want[0] {
		t.Errorf("seed %d: RunAll(workers=1) %s differs from sequential Run:\n%s\nvs\n%s",
			opts.Seed, ids[0], want[0], got)
	}
	for _, w := range workers[1:] {
		got, bodies, err := renderAll(t, ids, opts, w)
		if err != nil {
			t.Fatalf("seed %d workers=%d: %v", opts.Seed, w, err)
		}
		for i, id := range ids {
			if !reflect.DeepEqual(baseline[i], got[i]) {
				t.Errorf("seed %d workers=%d: report %s differs from sequential baseline", opts.Seed, w, id)
			}
			if bodies[i] != want[i] {
				t.Errorf("seed %d workers=%d: rendered %s not byte-identical", opts.Seed, w, id)
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

// TestPropRunAllDeterministicErrors is the determinism law's error half: a
// suite containing an unknown id fails identically — same error text, same
// partial reports — at 1 and 3 workers.
func TestPropRunAllDeterministicErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("suite determinism sweep is not short")
	}
	ids := []string{"f1", "no-such-experiment", "t6"}
	opts := Options{Seed: 7, SeedSet: true, Quick: true}
	_, wantBodies, wantErr := renderAll(t, ids, opts, 1)
	if !errors.Is(wantErr, ErrUnknown) {
		t.Fatalf("workers=1: error = %v, want ErrUnknown", wantErr)
	}
	if wantBodies[0] == "" || wantBodies[1] != "" || wantBodies[2] == "" {
		t.Fatalf("workers=1: want f1 and t6 rendered around the failed slot, got %q", wantBodies)
	}
	_, bodies, err := renderAll(t, ids, opts, 3)
	if err == nil || err.Error() != wantErr.Error() {
		t.Errorf("RunAll error differs: 1 worker -> %q, 3 workers -> %v", wantErr, err)
	}
	if !reflect.DeepEqual(bodies, wantBodies) {
		t.Errorf("partial reports differ between 1 and 3 workers")
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
		t.Skip("renders thirteen experiments twice from cold worlds")
	}
	defer setWorldMemo(true)
	ids := []string{"f1", "f2", "f5", "f6", "t1", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "a1"}
	opts := Options{Quick: true, Seed: 42}
	render := func(procs int) []string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		setWorldMemo(true)
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
