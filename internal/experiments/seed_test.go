package experiments

import (
	"testing"

	"privmem/internal/seeds"
)

// seeds.SubSeed is the single sanctioned way to seed a secondary random stream
// inside an experiment (the seedflow analyzer rejects seed+k arithmetic at
// rand.NewSource call sites). These tests pin the derivation.

// The golden value locks the exact FNV-1a byte layout: 8-byte little-endian
// base seed followed by the label. Changing it silently would re-seed the
// zk commitment stream and shift any report that renders random draws.
func TestSubSeedGolden(t *testing.T) {
	if got := seeds.SubSeed(42, "zk-commitments"); got != -851963342613852277 {
		t.Errorf("seeds.SubSeed(42, %q) = %d, want -851963342613852277 (derivation changed?)", "zk-commitments", got)
	}
}

// ForExperiment is defined to be exactly seeds.SubSeed over (effective seed, id):
// the daemon's cache keys and cmd/figures both rely on that equivalence.
func TestForExperimentUsesSubSeed(t *testing.T) {
	o := Options{Seed: 42, SeedSet: true}.ForExperiment("f1")
	if want := seeds.SubSeed(42, "f1"); o.Seed != want {
		t.Errorf("ForExperiment seed = %d, want seeds.SubSeed(42, f1) = %d", o.Seed, want)
	}
	if o.Seed != 5352453935110933198 {
		t.Errorf("ForExperiment(f1) seed = %d, want golden 5352453935110933198", o.Seed)
	}
}

// Distinct labels under the same base must decorrelate, and the same label
// under distinct bases must too — the properties seed+k offsets lack.
func TestSubSeedDecorrelates(t *testing.T) {
	if seeds.SubSeed(42, "a") == seeds.SubSeed(42, "b") {
		t.Error("distinct labels collided")
	}
	if seeds.SubSeed(1, "a") == seeds.SubSeed(2, "a") {
		t.Error("distinct bases collided")
	}
	if seeds.SubSeed(42, "a") == 42 {
		t.Error("derived seed equals base seed")
	}
}
