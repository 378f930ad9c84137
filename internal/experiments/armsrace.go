package experiments

import (
	"fmt"
	"time"

	"privmem/internal/attack/fingerprint"
	"privmem/internal/attack/niom"
	"privmem/internal/defense/gateway"
	"privmem/internal/defense/stp"
	"privmem/internal/home"
	"privmem/internal/nettrace"
	"privmem/internal/seeds"
)

// armsRaceDefenseCount is the number of defense generations in the matrix:
// D0 none, D1 gateway per-device, D2 gateway bucketed, D3 STP.
const armsRaceDefenseCount = 4

// armsRaceCellBytes is the D2 bucket size: large enough that neighbouring
// device-class envelopes quantize into shared buckets (see
// gateway.ShapeConfig.CellBytes).
const armsRaceCellBytes = 200_000

// armsRaceWorkload bundles the arms-race world; consumers read only.
// Index k of labs/victims is the capture as seen behind defense generation
// k.
type armsRaceWorkload struct {
	tr       *home.Trace
	labels   [armsRaceDefenseCount]string
	labs     [armsRaceDefenseCount]*nettrace.Capture
	victims  [armsRaceDefenseCount]*nettrace.Capture
	overhead [armsRaceDefenseCount]float64
}

// armsRaceWorld builds the generation×generation world from the §IV
// lab/victim pair: both captures as reshaped by each defense generation.
// The attacker's lab runs its own STP instance, so its padding stream is
// seeded independently of the victim's deployment — the attacker learns the
// defense's distribution, never its concrete coin flips.
func armsRaceWorld(seed int64, lab, victim *nettrace.Capture, tr *home.Trace) (*armsRaceWorkload, error) {
	w := &armsRaceWorkload{tr: tr}
	w.labels = [armsRaceDefenseCount]string{
		"D0 none", "D1 gateway per-device", "D2 gateway bucketed", "D3 stochastic padding",
	}
	w.labs[0], w.victims[0] = lab, victim

	for k, cfg := range []gateway.ShapeConfig{
		{},                             // D1: per-device constant-rate envelopes
		{CellBytes: armsRaceCellBytes}, // D2: + linear bucket padding
	} {
		gen := k + 1
		sl, _, err := gateway.Shape(lab, cfg)
		if err != nil {
			return nil, fmt.Errorf("arms race D%d lab: %w", gen, err)
		}
		sv, rep, err := gateway.Shape(victim, cfg)
		if err != nil {
			return nil, fmt.Errorf("arms race D%d victim: %w", gen, err)
		}
		w.labs[gen], w.victims[gen], w.overhead[gen] = sl, sv, rep.PaddingOverhead
	}

	pl, _, err := stp.Pad(lab, stp.DefaultConfig(seeds.SubSeed(seed, "stp lab")))
	if err != nil {
		return nil, fmt.Errorf("arms race D3 lab: %w", err)
	}
	pv, rep, err := stp.Pad(victim, stp.DefaultConfig(seeds.SubSeed(seed, "stp victim")))
	if err != nil {
		return nil, fmt.Errorf("arms race D3 victim: %w", err)
	}
	w.labs[3], w.victims[3], w.overhead[3] = pl, pv, rep.PaddingOverhead
	return w, nil
}

// ArmsRaceMatrix reproduces the adaptive-adversary arms race: attacker
// generations A0..A3 (A0 trained on clean lab traffic, A_k retrained on the
// lab as reshaped by defense generation k) each identify the devices of the
// victim LAN behind every defense generation D0..D3. The off-diagonal cells
// measure transfer; the diagonal acc_dk_ak is the honest security claim —
// what the defense holds against the attacker that has adapted to it.
//
// Headline shape: per-device shaping (D1) collapses the static attacker but
// its retrained diagonal recovers almost fully (the per-device envelopes
// are themselves class-distinctive); bucket padding (D2) quantizes the
// envelopes and holds the diagonal down; STP (D3) never cedes the identity
// channel in the first place, so retraining buys the attacker nothing —
// its contribution is the occupancy-MCC collapse at event scale.
func ArmsRaceMatrix(opts Options) (*Report, error) {
	lab, victim, tr, err := networkWorld(opts)
	if err != nil {
		return nil, fmt.Errorf("arms race: %w", err)
	}
	w, err := armsRaceWorld(opts.seed(), lab, victim, tr)
	if err != nil {
		return nil, fmt.Errorf("arms race: %w", err)
	}

	var adversaries [armsRaceDefenseCount]*fingerprint.Adversary
	adversaries[0], err = fingerprint.NewAdversary(w.labs[0], time.Hour)
	if err != nil {
		return nil, fmt.Errorf("arms race A0: %w", err)
	}
	for k := 1; k < armsRaceDefenseCount; k++ {
		adversaries[k], err = adversaries[0].Retrain(w.labs[k])
		if err != nil {
			return nil, fmt.Errorf("arms race A%d: %w", k, err)
		}
	}

	// Every generation scores a victim from one extraction at the shared
	// window.
	window := adversaries[0].Window()
	for k, a := range adversaries {
		if a.Window() != window {
			return nil, fmt.Errorf("arms race A%d: window %v, A0 trained at %v", k, a.Window(), window)
		}
	}
	var acc, accBayes [armsRaceDefenseCount][armsRaceDefenseCount]float64
	for i := 0; i < armsRaceDefenseCount; i++ {
		feats, err := nettrace.ExtractFeatures(w.victims[i], window)
		if err != nil {
			return nil, fmt.Errorf("arms race D%d: %w", i, err)
		}
		for j := 0; j < armsRaceDefenseCount; j++ {
			c, b, err := adversaries[j].IdentifyFeatures(w.victims[i], feats)
			if err != nil {
				return nil, fmt.Errorf("arms race D%d vs A%d: %w", i, j, err)
			}
			acc[i][j], accBayes[i][j] = c.Accuracy, b.Accuracy
		}
	}

	var occMCC [armsRaceDefenseCount]float64
	for i := 0; i < armsRaceDefenseCount; i++ {
		occ, err := fingerprintOccupancy(w.victims[i])
		if err != nil {
			return nil, fmt.Errorf("arms race D%d occupancy: %w", i, err)
		}
		ev, err := niom.EvaluateDaytime(w.tr.Occupancy, occ, 8, 23)
		if err != nil {
			return nil, fmt.Errorf("arms race D%d occupancy: %w", i, err)
		}
		occMCC[i] = ev.MCC
	}

	rep := &Report{
		ID:    "ar1",
		Title: "adaptive-adversary arms race: device-ID accuracy, defense generation × attacker generation",
		Headers: []string{"defense", "A0 (clean)", "A1 (gw)", "A2 (bucket)", "A3 (stp)",
			"occ MCC", "overhead"},
		Metrics: map[string]float64{},
		Notes: []string{
			"diagonal acc_dk_ak is the honest claim: the defense vs the attacker retrained through it",
			"per-device envelopes are re-learnable; bucketed envelopes quantize classes together",
			"stp defends the activity channel (occ MCC), not the identity channel",
		},
	}
	for i := 0; i < armsRaceDefenseCount; i++ {
		rep.Rows = append(rep.Rows, []string{
			w.labels[i], f(acc[i][0]), f(acc[i][1]), f(acc[i][2]), f(acc[i][3]),
			f(occMCC[i]), fmt.Sprintf("%.2fx", w.overhead[i]),
		})
		for j := 0; j < armsRaceDefenseCount; j++ {
			rep.Metrics[fmt.Sprintf("acc_d%d_a%d", i, j)] = acc[i][j]
		}
		rep.Metrics[fmt.Sprintf("acc_bayes_d%d_a%d", i, i)] = accBayes[i][i]
		rep.Metrics[fmt.Sprintf("occ_mcc_d%d", i)] = occMCC[i]
		rep.Metrics[fmt.Sprintf("overhead_d%d", i)] = w.overhead[i]
	}
	// Retraining advantage: what adapting buys the attacker against the
	// deployed defense. Large for per-device shaping, ~zero under STP
	// (there is nothing to recover — A0 never lost the identity channel).
	rep.Metrics["adv_gateway"] = acc[1][1] - acc[1][0]
	rep.Metrics["adv_bucket"] = acc[2][2] - acc[2][0]
	rep.Metrics["adv_stp"] = acc[3][3] - acc[3][0]
	return rep, nil
}
