package experiments_test

import (
	"testing"

	"privmem/internal/experiments"
	"privmem/internal/fleet"
	"privmem/internal/invariant/suite"
)

// suiteIDs is a small, cheap cross-section for determinism checks: a figure
// generator, an attack table, and the zk-billing table.
var suiteIDs = []string{"f1", "t1", "t6"}

// TestPropRunAllDeterministic checks the suite-determinism law across worker
// counts and seeds: RunAll must render bit-identical reports whether the
// suite runs sequentially or spread over a pool.
func TestPropRunAllDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("suite determinism sweep is not short")
	}
	for _, seed := range []int64{0, 1, 42} {
		opts := experiments.Options{Seed: seed, SeedSet: true, Quick: true}
		if err := suite.RunAllDeterministic(suiteIDs, opts, []int{1, 2, 5}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestPropRunAllMemoTransparent checks the memo-transparency law: the
// shared-world memo must not change a single rendered byte, whether the
// suite runs sequentially or on a pool.
func TestPropRunAllMemoTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("memo transparency sweep is not short")
	}
	for _, seed := range []int64{0, 42} {
		opts := experiments.Options{Seed: seed, SeedSet: true, Quick: true}
		if err := suite.RunAllMemoTransparent(suiteIDs, opts, []int{1, 3}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestPropArmsRaceLaws checks the ar1 structural laws — gateway-family
// defense-cost monotonicity and the attacker-advantage bound (a gen-N
// attacker is never worse than gen-0 on gen-N defended traffic).
func TestPropArmsRaceLaws(t *testing.T) {
	if testing.Short() {
		t.Skip("arms race sweep is not short")
	}
	for _, seed := range []int64{0, 42} {
		opts := experiments.Options{Seed: seed, SeedSet: true, Quick: true}
		if err := suite.ArmsRaceLaws(opts); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestPropArmsRaceDeterministic checks that the arms-race matrix renders
// bit-identically across worker counts and with the world memo on or off:
// the defended captures, the retrained adversaries, and the STP coin flips
// are all pure functions of (seed, quick).
func TestPropArmsRaceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("arms race sweep is not short")
	}
	ids := []string{"ar1", "t8"}
	opts := experiments.Options{Seed: 42, SeedSet: true, Quick: true}
	if err := suite.RunAllDeterministic(ids, opts, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := suite.RunAllMemoTransparent(ids, opts, []int{2}); err != nil {
		t.Fatal(err)
	}
}

// TestPropOnlineNIOMEquivalent replays a recorded metered home through the
// streaming NIOM detector and requires bit-identity with the batch sliding
// detector at every window boundary.
func TestPropOnlineNIOMEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("online equivalence sweep is not short")
	}
	for _, seed := range []int64{0, 7, 42} {
		if err := suite.OnlineNIOMEquivalent(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestPropOnlineFHMMEquivalent pins windowed and streaming factorial-HMM
// decoding to exact batch Viterbi, bit for bit, across window sizes.
func TestPropOnlineFHMMEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("online equivalence sweep is not short")
	}
	for _, seed := range []int64{0, 13, 42} {
		if err := suite.OnlineFHMMEquivalent(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestPropFleetDeterministic checks the fleet tentpole law end to end: the
// population summary renders bit-identically at every worker count, and the
// fl1 experiment built on it passes the RunAll determinism law.
func TestPropFleetDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep is not short")
	}
	spec := fleet.DefaultSpec()
	spec.Homes, spec.Days, spec.Seed = 150, 2, 17
	if err := suite.FleetDeterministic(spec, []int{1, 3, 7}); err != nil {
		t.Fatal(err)
	}
	opts := experiments.Options{Seed: 42, SeedSet: true, Quick: true}
	if err := suite.RunAllDeterministic([]string{"fl1"}, opts, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
}

// TestPropRunAllDeterministicErrors checks the law's error half: a suite
// containing an unknown id must fail identically — same error text, same
// partial results — under every worker count.
func TestPropRunAllDeterministicErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("suite determinism sweep is not short")
	}
	ids := []string{"f1", "no-such-experiment", "t6"}
	opts := experiments.Options{Seed: 7, SeedSet: true, Quick: true}
	if err := suite.RunAllDeterministic(ids, opts, []int{1, 3}); err != nil {
		t.Fatal(err)
	}
}
