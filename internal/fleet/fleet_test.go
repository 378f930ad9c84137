package fleet

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// quickSpec is a small fleet that still exercises every archetype, multiple
// variants, and several analysis windows per home.
func quickSpec() Spec {
	return Spec{
		Homes:    120,
		Workers:  1,
		Days:     2,
		Seed:     7,
		Variants: 3,
	}
}

// TestRunDeterministicAcrossWorkers is the tentpole law: the fleet summary is
// a pure function of the spec — bit-identical Result and byte-identical
// Render at every worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	base := quickSpec()
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	var refText bytes.Buffer
	if err := ref.Render(&refText); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5, 8} {
		spec := base
		spec.Workers = workers
		got, err := Run(spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Workers is reported in the summary; normalize it before comparing.
		got.Workers = ref.Workers
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d result differs:\n got %+v\nwant %+v", workers, got, ref)
		}
		var text bytes.Buffer
		got.Render(&text)
		if text.String() != refText.String() {
			t.Fatalf("workers=%d render differs:\n%s\nvs\n%s", workers, text.String(), refText.String())
		}
	}
}

// TestRunRepeatable: same spec twice, identical summary.
func TestRunRepeatable(t *testing.T) {
	a, err := Run(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("re-run differs:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRunSeedMatters: a different seed must move the leakage distributions.
// Seed 0 is a seed like any other, not "unset": it must not silently run the
// default seed 42.
func TestRunSeedMatters(t *testing.T) {
	for _, seeds := range [][2]int64{{7, 1234}, {0, 42}} {
		spec := quickSpec()
		spec.Seed = seeds[0]
		a, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Seed = seeds[1]
		b, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.NIOMAccuracy, b.NIOMAccuracy) &&
			reflect.DeepEqual(a.MaxZ, b.MaxZ) {
			t.Fatalf("seeds %d and %d left every distribution untouched", seeds[0], seeds[1])
		}
	}
}

// TestRunSummaryShape sanity-checks the summary: every home lands in an
// archetype, accuracies are fractions, and the attacks beat coin flipping at
// the median (the simulated world is deliberately learnable).
func TestRunSummaryShape(t *testing.T) {
	spec := quickSpec()
	spec.Workers = 4
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range res.Mix {
		total += m.Homes
	}
	if total != spec.Homes {
		t.Fatalf("mix accounts for %d homes, want %d", total, spec.Homes)
	}
	if res.WindowsPerHome != spec.Days*24 {
		t.Fatalf("windows per home %d, want %d", res.WindowsPerHome, spec.Days*24)
	}
	for name, q := range map[string]Quantiles{
		"niom": res.NIOMAccuracy, "net": res.NetAccuracy, "fhmm": res.FHMMAccuracy,
	} {
		if q.P50 < 0 || q.P99 > 1.000001 {
			t.Fatalf("%s quantiles out of range: %+v", name, q)
		}
		if q.P50 > q.P95+1e-9 || q.P95 > q.P99+1e-9 {
			t.Fatalf("%s quantiles not monotone: %+v", name, q)
		}
	}
	if res.NIOMAccuracy.P50 <= 0.5 {
		t.Fatalf("median NIOM accuracy %.3f not better than chance", res.NIOMAccuracy.P50)
	}
	if res.MaxZ.P50 <= 0 {
		t.Fatalf("median max z-score %.3f, want positive", res.MaxZ.P50)
	}
}

// TestRunCustomMix: a single-archetype mix puts every home there.
func TestRunCustomMix(t *testing.T) {
	spec := quickSpec()
	spec.Homes = 40
	spec.Mix = []Share{{Archetype: "retired", Weight: 1}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mix) != 1 || res.Mix[0].Name != "retired" || res.Mix[0].Homes != 40 {
		t.Fatalf("mix = %+v, want all 40 in retired", res.Mix)
	}
}

// TestRunRejectsBadSpec: validation failures surface as ErrBadSpec without
// running anything.
func TestRunRejectsBadSpec(t *testing.T) {
	for name, mutate := range map[string]func(*Spec){
		"negative homes":    func(s *Spec) { s.Homes = -1 },
		"homes over bound":  func(s *Spec) { s.Homes = MaxHomes + 1 },
		"workers over":      func(s *Spec) { s.Workers = MaxWorkers + 1 },
		"negative days":     func(s *Spec) { s.Days = -2 },
		"variants over":     func(s *Spec) { s.Variants = MaxVariants + 1 },
		"unknown archetype": func(s *Spec) { s.Mix = []Share{{Archetype: "mansion", Weight: 1}} },
		"zero weight":       func(s *Spec) { s.Mix = []Share{{Archetype: "family", Weight: 0}} },
	} {
		bad := quickSpec()
		mutate(&bad)
		if _, err := Run(bad); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: Run = %v, want ErrBadSpec", name, err)
		}
	}
}

// TestRunPanicReachesCaller: a panic while a home is ingested re-raises on
// the goroutine that called run, where a recover (the experiment runner's,
// or this test's) contains it instead of the process dying.
func TestRunPanicReachesCaller(t *testing.T) {
	spec := quickSpec()
	spec.Workers = 3
	r, err := newRunner(spec.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	r.states[len(r.states)/2].stream = nil
	var got any
	func() {
		defer func() { got = recover() }()
		r.run()
	}()
	if got == nil {
		t.Fatal("run returned normally with a nil stream")
	}
}
