// Package stp implements stochastic traffic padding (STP), the
// activity-hiding defense of Apthorpe et al. ("Keeping the Smart Home
// Private with Smart(er) IoT Traffic Shaping"): time is divided into
// padding epochs, and during randomly chosen idle epochs the gateway
// injects cover traffic that replays the device's own recorded activity
// signature. An observer who sees event-scale flows in an epoch can no
// longer tell a real user activity from an injected decoy, so
// activity/occupancy inference degrades toward the cover rate — without
// delaying or reshaping the device's real traffic, which is what makes STP
// far cheaper than constant-rate shaping.
//
// Unlike the gateway's constant-rate shaper, STP targets the *activity*
// channel, not the *identity* channel: real flows pass through unmodified,
// so a device-identification attacker (even a retrained one) keeps most of
// its signal, while activity and occupancy inference — the paper's §IV
// behavioural threat — absorb the injected false positives.
//
// All randomness derives from Config.Seed through the FNV-1a sub-seed
// deriver, one stream per device, so a padded capture is a pure function of
// (capture, config) — independent of map order, worker count, and previous
// runs.
package stp

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"privmem/internal/nettrace"
	"privmem/internal/seeds"
)

// ErrBadConfig indicates invalid padding parameters.
var ErrBadConfig = errors.New("stp: invalid config")

// Config parameterizes stochastic traffic padding.
type Config struct {
	// Seed drives all randomness (which idle epochs get cover, and the
	// jitter applied to replayed flows).
	Seed int64
	// Epoch is the padding period (default 15 minutes): activity is hidden
	// at this granularity.
	Epoch time.Duration
	// EventBytes is the flow volume (up+down) above which a flow counts as
	// user activity worth hiding (default 50 kB — the same threshold the
	// occupancy attack uses for event-scale flows).
	EventBytes int
	// CoverProbability is the chance an idle device-epoch is filled with
	// cover traffic (default 0.3). Higher cover hides activity better and
	// costs proportionally more padding bytes.
	CoverProbability float64
}

// DefaultConfig returns the padding configuration used in the experiments.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:             seed,
		Epoch:            15 * time.Minute,
		EventBytes:       50_000,
		CoverProbability: 0.3,
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	d := DefaultConfig(out.Seed)
	if out.Epoch == 0 {
		out.Epoch = d.Epoch
	}
	if out.EventBytes == 0 {
		out.EventBytes = d.EventBytes
	}
	if out.CoverProbability == 0 {
		out.CoverProbability = d.CoverProbability
	}
	return out
}

func (c *Config) validate() error {
	switch {
	case c.Epoch <= 0:
		return fmt.Errorf("%w: epoch %v", ErrBadConfig, c.Epoch)
	case c.EventBytes <= 0:
		return fmt.Errorf("%w: event bytes %d", ErrBadConfig, c.EventBytes)
	case c.CoverProbability < 0 || c.CoverProbability > 1:
		return fmt.Errorf("%w: cover probability %v", ErrBadConfig, c.CoverProbability)
	}
	return nil
}

// Report quantifies the padding cost and coverage.
type Report struct {
	// PaddingOverhead is injected bytes / real bytes.
	PaddingOverhead float64
	// ActiveEpochs counts device-epochs that contained real activity.
	ActiveEpochs int
	// CoverEpochs counts idle device-epochs that received cover traffic.
	CoverEpochs int
	// TotalDeviceEpochs is devices × epochs.
	TotalDeviceEpochs int
	// InjectedFlows counts cover flows added to the capture.
	InjectedFlows int
}

// signature is one recorded activity epoch: the event flows a device
// emitted, as offsets into the epoch.
type signature struct {
	flows []sigFlow
}

type sigFlow struct {
	offset   time.Duration
	endpoint string
	up, down int
}

// Pad returns a copy of the capture with stochastic cover traffic injected
// into randomly chosen idle epochs of each device. Real records pass
// through untouched (ground truth is preserved for evaluation); cover flows
// replay a jittered copy of one of the device's own recorded activity
// epochs, to the device's real endpoints, so they are statistically
// indistinguishable from genuine events. Devices that never showed
// event-scale activity have no signature to replay and receive no cover.
func Pad(cap *nettrace.Capture, cfg Config) (*nettrace.Capture, *Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, nil, fmt.Errorf("stp pad: %w", err)
	}
	epochs := int(cap.End.Sub(cap.Start) / cfg.Epoch)
	if epochs <= 0 {
		return nil, nil, fmt.Errorf("stp pad: %w: capture shorter than one epoch", ErrBadConfig)
	}

	// Index each device's event-scale activity by epoch.
	activeByDev := map[string]map[int]bool{}
	sigFlowsByDev := map[string]map[int][]sigFlow{}
	var realBytes float64
	for _, r := range cap.Records {
		realBytes += float64(r.BytesUp + r.BytesDown)
		if r.BytesUp+r.BytesDown < cfg.EventBytes {
			continue
		}
		e := nettrace.WindowIndex(cap.Start, r.Time, cfg.Epoch)
		if e < 0 || e >= epochs {
			continue
		}
		if activeByDev[r.Device] == nil {
			activeByDev[r.Device] = map[int]bool{}
			sigFlowsByDev[r.Device] = map[int][]sigFlow{}
		}
		activeByDev[r.Device][e] = true
		epochStart := cap.Start.Add(time.Duration(e) * cfg.Epoch)
		sigFlowsByDev[r.Device][e] = append(sigFlowsByDev[r.Device][e], sigFlow{
			offset:   r.Time.Sub(epochStart),
			endpoint: r.Endpoint,
			up:       r.BytesUp,
			down:     r.BytesDown,
		})
	}

	out := &nettrace.Capture{Start: cap.Start, End: cap.End, Devices: cap.Devices}
	out.Records = append(out.Records, cap.Records...)
	report := &Report{TotalDeviceEpochs: len(cap.Devices) * epochs}
	var injectedBytes float64

	// Devices are walked in capture order (a deterministic slice) and each
	// draws from its own sub-seeded stream, so injection is independent of
	// map iteration and of the other devices' draw counts.
	for _, dev := range cap.Devices {
		active := activeByDev[dev.Name]
		report.ActiveEpochs += len(active)
		sigs := collectSignatures(sigFlowsByDev[dev.Name])
		if len(sigs) == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(seeds.SubSeed(cfg.Seed, dev.Name)))
		for e := 0; e < epochs; e++ {
			if active[e] {
				continue
			}
			if rng.Float64() >= cfg.CoverProbability {
				continue
			}
			report.CoverEpochs++
			sig := sigs[rng.Intn(len(sigs))]
			epochStart := cap.Start.Add(time.Duration(e) * cfg.Epoch)
			for _, f := range sig.flows {
				// Jitter timing within the epoch and volume by ±30% (the
				// simulator's own event jitter), so cover epochs are
				// statistically like real ones without being byte replays.
				off := f.offset + time.Duration(rng.Int63n(int64(time.Minute))) - 30*time.Second
				if off < 0 {
					off = 0
				}
				if off >= cfg.Epoch {
					off = cfg.Epoch - time.Second
				}
				rec := nettrace.FlowRecord{
					Time:      epochStart.Add(off),
					Device:    dev.Name,
					Endpoint:  f.endpoint,
					BytesUp:   nettrace.JitterBytes(rng, f.up),
					BytesDown: nettrace.JitterBytes(rng, f.down),
				}
				out.Records = append(out.Records, rec)
				injectedBytes += float64(rec.BytesUp + rec.BytesDown)
				report.InjectedFlows++
			}
		}
	}

	sort.Slice(out.Records, func(i, j int) bool {
		a, b := out.Records[i], out.Records[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Endpoint != b.Endpoint {
			return a.Endpoint < b.Endpoint
		}
		return a.BytesUp+a.BytesDown < b.BytesUp+b.BytesDown
	})
	if realBytes > 0 {
		report.PaddingOverhead = injectedBytes / realBytes
	}
	return out, report, nil
}

// collectSignatures flattens the per-epoch event flows into a deterministic
// signature pool, ordered by epoch index.
func collectSignatures(byEpoch map[int][]sigFlow) []signature {
	if len(byEpoch) == 0 {
		return nil
	}
	idx := make([]int, 0, len(byEpoch))
	for e := range byEpoch {
		idx = append(idx, e)
	}
	sort.Ints(idx)
	sigs := make([]signature, 0, len(idx))
	for _, e := range idx {
		sigs = append(sigs, signature{flows: byEpoch[e]})
	}
	return sigs
}
