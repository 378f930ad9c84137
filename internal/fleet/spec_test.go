package fleet

import (
	"errors"
	"strings"
	"testing"

	"privmem/internal/seeds"
)

// TestParseMix parses a mix and checks it part by part.
func TestParseMix(t *testing.T) {
	mix, err := ParseMix("family:0.5,cottage:1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0] != (Share{"family", 0.5}) || mix[1] != (Share{"cottage", 1.5}) {
		t.Fatalf("parsed mix %+v", mix)
	}
}

// TestParseMixRejects enumerates hostile inputs; every one must fail with
// ErrBadSpec and none may panic or allocate per the claimed size.
func TestParseMixRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"family",                                 // no weight
		":1",                                     // no name
		"family:",                                // empty weight
		"family:x",                               // not a number
		"mansion:1",                              // unknown archetype
		"family:0",                               // zero weight
		"family:-2",                              // negative weight
		"family:NaN",                             // NaN weight
		"family:+Inf",                            // infinite weight
		"family:1e308,apartment:1e308",           // weights over MaxMixWeight
		"family:1,family:1",                      // duplicate
		"family:1,",                              // trailing empty part
		"family:1 apartment:1",                   // whitespace is not a separator
		strings.Repeat("family:1,", MaxMixParts), // one part over the bound
	} {
		if _, err := ParseMix(s); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseMix(%q) = %v, want ErrBadSpec", s, err)
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

// TestSubSeedIndexDistinct: the per-home seed edge must give every home its
// own seed, separate labels, and re-derive identically.
func TestSubSeedIndexDistinct(t *testing.T) {
	seen := map[int64]int{}
	for h := 0; h < 1000; h++ {
		s := seeds.SubSeedIndex(42, "home", h)
		if prev, dup := seen[s]; dup {
			t.Fatalf("homes %d and %d share seed %d", prev, h, s)
		}
		seen[s] = h
	}
	if seeds.SubSeedIndex(42, "home", 7) == seeds.SubSeedIndex(42, "net", 7) {
		t.Fatal("label does not separate seed streams")
	}
	if seeds.SubSeedIndex(42, "home", 7) != seeds.SubSeedIndex(42, "home", 7) {
		t.Fatal("SubSeedIndex not deterministic")
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
