package experiments

import (
	"fmt"
	"testing"

	"privmem/internal/invariant"
)

// TestArmsRaceMatrixHeadline pins the arms-race acceptance claims at quick
// scale:
//
//  1. Per-device gateway shaping collapses the static attacker, but the
//     gen-1 attacker retrained through it strictly recovers — the
//     per-device envelopes are a new, still class-distinctive signature.
//  2. STP yields ~zero retraining advantage (it never cedes the identity
//     channel, so there is nothing for the attacker to win back), hence a
//     strictly smaller advantage than the gateway's.
//  3. The defenses earn their keep on their own channels: every defended
//     occupancy MCC sits far below the undefended one.
func TestArmsRaceMatrixHeadline(t *testing.T) {
	rep, err := ArmsRaceMatrix(Options{Seed: 42, SeedSet: true, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	m := func(name string) float64 {
		t.Helper()
		v, err := rep.Metric(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	if static := m("acc_d1_a0"); static > 0.4 {
		t.Errorf("static attacker on per-device shaping = %.3f, expected collapse below 0.4", static)
	}
	advGateway := m("adv_gateway")
	if advGateway <= 0 {
		t.Errorf("gen-1 retraining advantage through per-device shaping = %.3f, want strictly positive", advGateway)
	}
	if diag := m("acc_d1_a1"); diag < 0.8 {
		t.Errorf("retrained attacker on per-device shaping = %.3f, expected near-full recovery (>= 0.8)", diag)
	}
	advSTP := m("adv_stp")
	if advSTP >= advGateway {
		t.Errorf("STP advantage %.3f not below gateway advantage %.3f", advSTP, advGateway)
	}
	// Bucket padding sits between: retrainable in principle, but the
	// quantized envelopes cap how much the diagonal recovers.
	if diag := m("acc_d2_a2"); diag > 0.5 {
		t.Errorf("retrained attacker on bucketed shaping = %.3f, want <= 0.5", diag)
	}

	undef := m("occ_mcc_d0")
	if undef < 0.7 {
		t.Fatalf("undefended occupancy MCC %.3f too low; world broken", undef)
	}
	for _, k := range []string{"occ_mcc_d1", "occ_mcc_d2", "occ_mcc_d3"} {
		if v := m(k); v > undef-0.3 {
			t.Errorf("%s = %.3f, want at least 0.3 below undefended %.3f", k, v, undef)
		}
	}

	if len(rep.Rows) != armsRaceDefenseCount {
		t.Errorf("report has %d rows, want %d", len(rep.Rows), armsRaceDefenseCount)
	}
}

// TestArmsRaceInRegistry pins the wiring: ar1 is reachable by id and listed
// after the ablations in AllIDs (before the fleet family), but stays out of
// the default IDs() set so headline figure runs are unchanged.
func TestArmsRaceInRegistry(t *testing.T) {
	if _, ok := Registry()["ar1"]; !ok {
		t.Fatal("ar1 missing from registry")
	}
	all := AllIDs()
	pos := -1
	for i, id := range all {
		if id == "ar1" {
			pos = i
		}
	}
	if want := len(all) - 1 - len(FleetIDs()); pos != want {
		t.Errorf("ar1 at AllIDs index %d, want %d (after ablations, before fleet)", pos, want)
	}
	for _, id := range IDs() {
		if id == "ar1" {
			t.Error("ar1 leaked into the default IDs() set")
		}
	}
}

// TestPropArmsRaceLaws checks the ar1 matrix's two structural laws at the
// literal seed 0 and at 42, as RunAll derives each run's seed.
//
// Defense-cost monotonicity: the gateway family is nested — bucket padding
// (D2) only adds bytes on top of per-device shaping (D1), which only adds
// bytes on top of no defense (D0) — so padding overhead is non-decreasing
// along D0→D1→D2. (D3/STP sits outside the nesting and carries no ordering
// claim.)
//
// Attacker-advantage bound: on traffic behind defense generation k, the
// attacker retrained through that defense does at least as well as the
// static gen-0 attacker: retraining on the deployed defense's output can
// only add information about it. A violation means the adaptive attacker
// is broken, and every "defense resists retraining" claim built on it is
// vacuous.
func TestPropArmsRaceLaws(t *testing.T) {
	if testing.Short() {
		t.Skip("arms race sweep is not short")
	}
	for _, seed := range []int64{0, 42} {
		opts := Options{Seed: seed, SeedSet: true, Quick: true}
		rep, err := Run("ar1", opts.ForExperiment("ar1"))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		metric := func(format string, args ...any) float64 {
			t.Helper()
			v, err := rep.Metric(fmt.Sprintf(format, args...))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return v
		}
		gens := []float64{0, 1, 2}
		overhead := make([]float64, len(gens))
		for i := range gens {
			overhead[i] = metric("overhead_d%d", i)
		}
		if err := invariant.Monotone("arms race: padding overhead vs gateway defense generation",
			gens, overhead, invariant.NonDecreasing, 1e-9); err != nil {
			t.Errorf("seed %d: %v (overhead=%v)", seed, err, overhead)
		}
		for k := 1; k <= 3; k++ {
			static, adapted := metric("acc_d%d_a0", k), metric("acc_d%d_a%d", k, k)
			if adapted < static-1e-9 {
				t.Errorf("seed %d: gen-%d attacker (%.4f) worse than gen-0 (%.4f) on D%d traffic",
					seed, k, adapted, static, k)
			}
		}
	}
}

// TestPropArmsRaceDeterministic checks that the arms-race matrix and t8
// render bit-identically across worker counts and with the world memo on or
// off: the defended captures, the retrained adversaries and the STP coin
// flips are all pure functions of (seed, quick). The reference is the
// sequential run with the memo off; the memo-on runs, from cold and again
// with every world cached, use two workers.
func TestPropArmsRaceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("arms race sweep is not short")
	}
	defer setWorldMemo(true)
	ids := []string{"ar1", "t8"}
	opts := Options{Seed: 42, SeedSet: true, Quick: true}
	setWorldMemo(false)
	_, want, err := renderAll(t, ids, opts, 1)
	if err != nil {
		t.Fatalf("memo off, 1 worker: %v", err)
	}
	setWorldMemo(true)
	for _, pass := range []string{"cold", "warm"} {
		_, got, err := renderAll(t, ids, opts, 2)
		if err != nil {
			t.Fatalf("memo %s, 2 workers: %v", pass, err)
		}
		for i, id := range ids {
			if got[i] != want[i] {
				t.Errorf("%s with the memo %s at 2 workers differs from memo off at 1 worker", id, pass)
			}
		}
	}
}
