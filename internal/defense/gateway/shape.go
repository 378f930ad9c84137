package gateway

import (
	"fmt"
	"math"
	"sort"
	"time"

	"privmem/internal/nettrace"
	"privmem/internal/stats"
)

// ShapeConfig parameterizes the traffic-shaping privacy defense.
type ShapeConfig struct {
	// Interval is the constant emission cadence: the gateway batches each
	// device's traffic and releases it once per interval (default 1 minute).
	Interval time.Duration
	// EnvelopeQuantile sets each device's fixed per-interval volume as this
	// quantile of its observed per-interval volumes (default 0.95). Traffic
	// above the envelope is queued and drained at the envelope rate, so the
	// emitted stream is strictly constant; a lower quantile costs queueing
	// delay instead of leaking timing.
	EnvelopeQuantile float64
	// Uniform, when true, uses a single LAN-wide envelope (the maximum of
	// the per-device envelopes) instead of per-device envelopes: maximal
	// privacy — every device looks identical — at maximal padding cost.
	Uniform bool
	// CellBytes, when positive, additionally pads every emitted flow up to
	// the next multiple of CellBytes — the linear bucket padding of the
	// website-fingerprinting countermeasure taxonomy. Per-device envelopes
	// leak device class through their exact byte values (which is how a
	// retrained attacker sees through per-device shaping); bucket padding
	// quantizes the envelopes so devices with nearby volumes collapse into
	// the same bucket and become mutually indistinguishable. Larger cells
	// merge more classes and cost more padding.
	CellBytes int
}

// DefaultShapeConfig returns the shaping configuration used in the
// experiments.
func DefaultShapeConfig() ShapeConfig {
	return ShapeConfig{Interval: time.Minute, EnvelopeQuantile: 0.95}
}

func (c *ShapeConfig) withDefaults() ShapeConfig {
	out := *c
	d := DefaultShapeConfig()
	if out.Interval == 0 {
		out.Interval = d.Interval
	}
	if out.EnvelopeQuantile == 0 {
		out.EnvelopeQuantile = d.EnvelopeQuantile
	}
	return out
}

func (c *ShapeConfig) validate() error {
	switch {
	case c.Interval <= 0:
		return fmt.Errorf("%w: interval %v", ErrBadConfig, c.Interval)
	case c.EnvelopeQuantile <= 0 || c.EnvelopeQuantile > 1:
		return fmt.Errorf("%w: envelope quantile %v", ErrBadConfig, c.EnvelopeQuantile)
	case c.CellBytes < 0:
		return fmt.Errorf("%w: cell bytes %d", ErrBadConfig, c.CellBytes)
	}
	return nil
}

// ShapeReport quantifies the cost of shaping.
type ShapeReport struct {
	// PaddingOverhead is (shaped bytes - real bytes) / real bytes.
	PaddingOverhead float64
	// MeanDelay is the average added batching delay (half an interval).
	MeanDelay time.Duration
	// MaxQueueDelay is the worst backlog drain time across devices: bursts
	// above the envelope wait in the gateway's queue and trickle out at the
	// envelope rate.
	MaxQueueDelay time.Duration
	// BackloggedIntervals counts device-intervals that ended with bytes
	// still queued.
	BackloggedIntervals int
	// UndrainedBytes counts bytes still queued when the capture ended (an
	// undersized envelope cannot keep up with its device).
	UndrainedBytes float64
}

// Shape rewrites a capture as an upstream observer would see it behind the
// shaping gateway: per device, exactly one envelope-sized flow per interval
// to an opaque gateway endpoint, regardless of the device's real activity.
// Bursts above the envelope are queued and drained at the envelope rate —
// timing is never leaked; the cost is queueing delay (reported). The
// returned capture preserves ground-truth device records (for evaluation)
// while presenting shaped metadata.
func Shape(cap *nettrace.Capture, cfg ShapeConfig) (*nettrace.Capture, *ShapeReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, nil, fmt.Errorf("shape: %w", err)
	}
	n := int(cap.End.Sub(cap.Start) / cfg.Interval)
	if n <= 0 {
		return nil, nil, fmt.Errorf("shape: %w: capture shorter than one interval", ErrBadConfig)
	}

	// Bucket real volumes per device-interval into one flat slab: device i's
	// intervals live at vols[i*n : (i+1)*n]. Records accumulate in capture
	// order, exactly like the old per-device map of slices.
	type vol struct{ up, down float64 }
	devIdx := make(map[string]int, len(cap.Devices))
	names := make([]string, 0, len(cap.Devices))
	addDev := func(name string) int {
		i, ok := devIdx[name]
		if !ok {
			i = len(names)
			devIdx[name] = i
			names = append(names, name)
		}
		return i
	}
	for _, d := range cap.Devices {
		addDev(d.Name)
	}
	vols := make([]vol, len(names)*n)
	var realBytes float64
	for _, r := range cap.Records {
		w := nettrace.WindowIndex(cap.Start, r.Time, cfg.Interval)
		if w < 0 || w >= n {
			continue
		}
		di := addDev(r.Device)
		if (di+1)*n > len(vols) {
			// A device seen only in records, never declared: extend the slab.
			vols = append(vols, make([]vol, n)...)
		}
		v := &vols[di*n+w]
		v.up += float64(r.BytesUp)
		v.down += float64(r.BytesDown)
		realBytes += float64(r.BytesUp + r.BytesDown)
	}

	// Envelopes, per device in sorted name order (float accumulation is
	// order-sensitive; a map walk would perturb bits run to run).
	devNames := append([]string(nil), names...)
	sort.Strings(devNames)
	envUp := make([]float64, len(devNames))
	envDown := make([]float64, len(devNames))
	ups := make([]float64, n)
	downs := make([]float64, n)
	for si, dev := range devNames {
		vs := vols[devIdx[dev]*n : (devIdx[dev]+1)*n]
		for w, v := range vs {
			ups[w], downs[w] = v.up, v.down
		}
		// Stability floor: IoT volume distributions are heavy-tailed, so a
		// plain quantile can sit below the mean rate and the queue would
		// grow without bound. The envelope must at least cover the mean
		// with headroom to drain bursts.
		envUp[si] = max(stats.Quantile(ups, cfg.EnvelopeQuantile), 1.2*stats.Mean(ups))
		envDown[si] = max(stats.Quantile(downs, cfg.EnvelopeQuantile), 1.2*stats.Mean(downs))
	}
	if cfg.Uniform {
		// One LAN-wide envelope: every device padded to the heaviest
		// device's envelope, so volume tiers reveal nothing either.
		var u, d float64
		for si := range devNames {
			u = max(u, envUp[si])
			d = max(d, envDown[si])
		}
		for si := range devNames {
			envUp[si], envDown[si] = u, d
		}
	}

	// Every device emits exactly one record per interval, so the final
	// time-then-device sort order is known in advance: interval w's block
	// holds the devices in sorted name order. Write each record straight
	// into its sorted slot — no sort pass, no append growth.
	D := len(devNames)
	shaped := &nettrace.Capture{
		Start:   cap.Start,
		End:     cap.End,
		Devices: cap.Devices,
		Records: make([]nettrace.FlowRecord, n*D),
	}
	report := &ShapeReport{MeanDelay: cfg.Interval / 2}
	var shapedBytes float64
	for si, dev := range devNames {
		eu, ed := envUp[si], envDown[si]
		// A zero envelope (device idle at the chosen quantile) still gets a
		// minimal cover flow so its presence pattern stays constant too.
		eu = max(eu, 64)
		ed = max(ed, 64)
		if cfg.CellBytes > 0 {
			cell := float64(cfg.CellBytes)
			eu = math.Ceil(eu/cell) * cell
			ed = math.Ceil(ed/cell) * cell
		}
		var queueUp, queueDown float64
		for w, v := range vols[devIdx[dev]*n : (devIdx[dev]+1)*n] {
			queueUp += v.up
			queueDown += v.down
			queueUp -= min(queueUp, eu)
			queueDown -= min(queueDown, ed)
			if queueUp > 0 || queueDown > 0 {
				report.BackloggedIntervals++
				drain := max(queueUp/eu, queueDown/ed)
				delay := time.Duration(drain * float64(cfg.Interval))
				if delay > report.MaxQueueDelay {
					report.MaxQueueDelay = delay
				}
			}
			shaped.Records[w*D+si] = nettrace.FlowRecord{
				Time:      cap.Start.Add(time.Duration(w) * cfg.Interval),
				Device:    dev,
				Endpoint:  "gateway.shaped.local",
				BytesUp:   int(eu),
				BytesDown: int(ed),
			}
			shapedBytes += eu + ed
		}
		report.UndrainedBytes += queueUp + queueDown
	}
	if realBytes > 0 {
		report.PaddingOverhead = (shapedBytes - realBytes) / realBytes
	}
	return shaped, report, nil
}
