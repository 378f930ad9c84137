package fleet

import (
	"errors"
	"testing"
	"time"
)

// TestParseSpecFull parses every key and checks the result field by field.
func TestParseSpecFull(t *testing.T) {
	spec, err := ParseSpec("homes=5000 workers=8 days=3 seed=-9 step=30m window=2h history=12 variants=6 buffer=5 mix=family:0.5,cottage:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Homes != 5000 || spec.Workers != 8 || spec.Days != 3 || spec.Seed != -9 ||
		spec.Step != 30*time.Minute || spec.Window != 2*time.Hour ||
		spec.History != 12 || spec.Variants != 6 || spec.Buffer != 5 {
		t.Fatalf("parsed spec %+v", spec)
	}
	if len(spec.Mix) != 2 || spec.Mix[0] != (Share{"family", 0.5}) || spec.Mix[1] != (Share{"cottage", 0.5}) {
		t.Fatalf("parsed mix %+v", spec.Mix)
	}
}

// TestParseSpecDefaults: an empty string yields the default spec.
func TestParseSpecDefaults(t *testing.T) {
	spec, err := ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultSpec()
	if spec.Homes != d.Homes || spec.Step != d.Step || spec.Window != d.Window {
		t.Fatalf("defaults not applied: %+v", spec)
	}
}

// TestParseSpecRejects enumerates hostile inputs; every one must fail with
// ErrBadSpec and none may panic or allocate per the claimed size.
func TestParseSpecRejects(t *testing.T) {
	for _, s := range []string{
		"homes=0",
		"homes=-1",
		"homes=50000001",        // just over MaxHomes
		"homes=999999999999999", // would OOM if materialized naively
		"workers=257",
		"days=0",
		"step=0s",
		"step=-15m",
		"step=7m",    // does not divide an hour
		"window=25h", // longer than a day
		"window=40m", // not a multiple of step=15m
		"window=5h",  // does not divide a day
		"history=0",
		"variants=65",
		"buffer=0",
		"mix=",
		"mix=family",            // no weight
		"mix=:1",                // no name
		"mix=mansion:1",         // unknown archetype
		"mix=family:0",          // zero weight
		"mix=family:-2",         // negative weight
		"mix=family:NaN",        // NaN weight
		"mix=family:+Inf",       // infinite weight
		"mix=family:1,family:1", // duplicate
		"bogus=1",
		"homes",
		"homes=",
		"beam=8",          // removed key
		"beam_mode=exact", // removed key
	} {
		if _, err := ParseSpec(s); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseSpec(%q) = %v, want ErrBadSpec", s, err)
		}
	}
}

// TestAssignCounts checks conservation, proportionality, and deterministic
// tie-breaking of the largest-remainder apportionment.
func TestAssignCounts(t *testing.T) {
	mix := []Share{{"family", 1}, {"apartment", 1}, {"retired", 1}, {"cottage", 1}}
	counts := assignCounts(10, mix)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10 {
		t.Fatalf("counts %v sum to %d, want 10", counts, total)
	}
	// 10/4 = 2.5 each: two entries round up. Remainders tie, so the earlier
	// entries win — deterministically.
	want := []int{3, 3, 2, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	// Heavily skewed mix.
	counts = assignCounts(100, []Share{{"family", 9}, {"cottage", 1}})
	if counts[0] != 90 || counts[1] != 10 {
		t.Fatalf("skewed counts = %v, want [90 10]", counts)
	}
	// Fewer homes than entries: the largest remainders get the homes.
	counts = assignCounts(2, mix)
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 0 || counts[3] != 0 {
		t.Fatalf("sparse counts = %v, want [1 1 0 0]", counts)
	}
}

// TestEffectiveMixDefault: an empty mix becomes an equal split over all
// builtins in canonical order.
func TestEffectiveMixDefault(t *testing.T) {
	mix := Spec{}.effectiveMix()
	names := ArchetypeNames()
	if len(mix) != len(names) {
		t.Fatalf("default mix has %d parts, want %d", len(mix), len(names))
	}
	for i, m := range mix {
		if m.Archetype != names[i] || m.Weight != 1 {
			t.Fatalf("default mix[%d] = %+v", i, m)
		}
	}
}

// TestWindowMajority pins the truth-folding helper.
func TestWindowMajority(t *testing.T) {
	vals := []float64{1, 1, 0, 0, 0, 0, 1, 1} // two windows of four
	got := windowMajority(vals, 2)
	// Window 0 is a 2/4 tie -> 1; window 1 is 2/4 -> 1.
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("majority = %v", got)
	}
	got = windowMajority([]float64{0, 0, 0, 1, 0, 0, 0, 1}, 2)
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("majority = %v", got)
	}
	// Degenerate: fewer samples than windows.
	got = windowMajority([]float64{1}, 4)
	for _, v := range got {
		if v != 0 {
			t.Fatalf("degenerate majority = %v", got)
		}
	}
}

// TestSubSeedIndexDistinct: per-home seeds must differ across homes and
// labels, and match a straightforward re-derivation.
func TestSubSeedIndexDistinct(t *testing.T) {
	seen := map[int64]int{}
	for h := 0; h < 1000; h++ {
		s := subSeedIndex(42, "home", h)
		if prev, dup := seen[s]; dup {
			t.Fatalf("homes %d and %d share seed %d", prev, h, s)
		}
		seen[s] = h
	}
	if subSeedIndex(42, "home", 7) == subSeedIndex(42, "net", 7) {
		t.Fatal("label does not separate seed streams")
	}
	if subSeedIndex(42, "home", 7) != subSeedIndex(42, "home", 7) {
		t.Fatal("subSeedIndex not deterministic")
	}
}

// TestRngNormFixedDraws: norm must consume exactly two uniforms per call, so
// generator state after n calls depends only on the seed and n.
func TestRngNormFixedDraws(t *testing.T) {
	a := rng{s: 99}
	for i := 0; i < 100; i++ {
		a.norm()
	}
	b := rng{s: 99}
	for i := 0; i < 200; i++ {
		b.next()
	}
	if a.s != b.s {
		t.Fatalf("100 norm calls advanced state to %d, 200 raw draws to %d", a.s, b.s)
	}
}
