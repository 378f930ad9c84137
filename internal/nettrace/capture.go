package nettrace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"privmem/internal/timeseries"
)

// ErrBadConfig indicates invalid simulation parameters.
var ErrBadConfig = errors.New("nettrace: invalid config")

// FlowRecord is one flow-metadata observation: what an on-path observer of
// encrypted traffic sees.
type FlowRecord struct {
	// Time is the flow start.
	Time time.Time
	// Device is the LAN identity (e.g. a MAC-derived name); the observer
	// sees this but not the device's true class.
	Device string
	// Endpoint is the remote host.
	Endpoint string
	// BytesUp and BytesDown are the flow's transferred volumes.
	BytesUp, BytesDown int
}

// Device is one simulated LAN device.
type Device struct {
	// Name is the LAN identity.
	Name string
	// Class is the ground-truth category.
	Class Class
}

// CompromiseKind is a post-compromise behaviour.
type CompromiseKind int

// The compromise behaviours of §IV.
const (
	// CompromiseScan probes many local/remote hosts with small flows.
	CompromiseScan CompromiseKind = iota + 1
	// CompromiseExfil sustains bulk uploads to an attacker endpoint.
	CompromiseExfil
	// CompromiseBot emits high-volume DDoS bursts toward a victim.
	CompromiseBot
)

// String implements fmt.Stringer.
func (k CompromiseKind) String() string {
	switch k {
	case CompromiseScan:
		return "scan"
	case CompromiseExfil:
		return "exfiltration"
	case CompromiseBot:
		return "ddos-bot"
	default:
		return fmt.Sprintf("CompromiseKind(%d)", int(k))
	}
}

// Compromise schedules a device takeover.
type Compromise struct {
	// Device is the victim device name.
	Device string
	// At is when the compromise activates: not before the capture's
	// Start; at or after its end it emits no records.
	At time.Time
	// Kind selects the malicious behaviour.
	Kind CompromiseKind
}

// Config parameterizes a LAN capture simulation.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Start and Days bound the capture.
	Start time.Time
	Days  int
	// Counts maps each class to the number of device instances (the paper's
	// "over 40 IoT devices" example home).
	Counts map[Class]int
	// Activity optionally couples event traffic to home activity (a binary
	// series from package home); nil means a default day/night pattern.
	Activity *timeseries.Series
	// Compromises schedules device takeovers.
	Compromises []Compromise
}

// DefaultCounts returns a ~40-device home.
func DefaultCounts() map[Class]int {
	return map[Class]int{
		ClassCamera:     4,
		ClassThermostat: 2,
		ClassSmartPlug:  8,
		ClassLock:       2,
		ClassTV:         3,
		ClassSpeaker:    4,
		ClassHub:        1,
		ClassBulb:       12,
		ClassDoorbell:   1,
		ClassVacuum:     1,
	}
}

// DefaultConfig returns a week-long capture of the default 38-device home.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:   seed,
		Start:  time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC),
		Days:   7,
		Counts: DefaultCounts(),
	}
}

// Capture is a simulated LAN trace with ground truth.
type Capture struct {
	// Records are flow observations sorted by time. Simulate's sort is
	// stable: records with the same timestamp keep their generation order,
	// which is the device order of Devices and, within a device,
	// heartbeats, then events, then compromise traffic.
	Records []FlowRecord
	// Devices lists every device with its true class.
	Devices []Device
	// Start and End bound the capture.
	Start, End time.Time
}

// DeviceClass returns the ground-truth class for a device name.
func (c *Capture) DeviceClass(name string) (Class, error) {
	for _, d := range c.Devices {
		if d.Name == name {
			return d.Class, nil
		}
	}
	return 0, fmt.Errorf("nettrace: unknown device %q", name)
}

// activeAt reports home activity at t: the configured series if present,
// otherwise a default awake-hours pattern.
func activeAt(activity *timeseries.Series, t time.Time) bool {
	if activity != nil {
		return activity.At(t) >= 0.5
	}
	h := t.Hour()
	return h >= 7 && h < 23
}

// SimulateLab generates the attacker's lab capture that device classifiers
// train on: two days of one device per class.
func SimulateLab(seed int64) (*Capture, error) {
	cfg := DefaultConfig(seed)
	cfg.Days = 2
	cfg.Counts = map[Class]int{}
	for _, c := range Classes() {
		cfg.Counts[c] = 1
	}
	return Simulate(cfg)
}

// maxDays is the longest capture whose span fits in a time.Duration.
const maxDays = int(math.MaxInt64 / int64(24*time.Hour))

// Simulate generates the LAN capture.
func Simulate(cfg Config) (*Capture, error) {
	cap, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	sortByTime(cap.Records)
	return cap, nil
}

// generate validates cfg and renders the capture in generation order: the
// devices in the order of Devices, each device's heartbeats, then its
// events, then its compromise traffic, each in time order.
func generate(cfg Config) (*Capture, error) {
	if cfg.Days <= 0 || cfg.Days > maxDays {
		return nil, fmt.Errorf("%w: days %d", ErrBadConfig, cfg.Days)
	}
	if len(cfg.Counts) == 0 {
		return nil, fmt.Errorf("%w: no devices", ErrBadConfig)
	}
	profiles := Profiles()
	end := cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	cap := &Capture{Start: cfg.Start, End: end}

	// Instantiate devices deterministically: iterate classes in a fixed
	// order.
	for _, class := range Classes() {
		n := cfg.Counts[class]
		for i := 0; i < n; i++ {
			cap.Devices = append(cap.Devices, Device{
				Name:  fmt.Sprintf("%s-%02d", class, i+1),
				Class: class,
			})
		}
	}

	compromised := map[string]Compromise{}
	for _, cmp := range cfg.Compromises {
		if _, err := cap.DeviceClass(cmp.Device); err != nil {
			return nil, fmt.Errorf("%w: compromise of unknown device %q", ErrBadConfig, cmp.Device)
		}
		if cmp.Kind < CompromiseScan || cmp.Kind > CompromiseBot {
			return nil, fmt.Errorf("%w: compromise kind %d", ErrBadConfig, cmp.Kind)
		}
		if cmp.At.Before(cfg.Start) {
			return nil, fmt.Errorf("%w: compromise of %q at %v, before the capture starts", ErrBadConfig, cmp.Device, cmp.At)
		}
		if _, dup := compromised[cmp.Device]; dup {
			return nil, fmt.Errorf("%w: device %q compromised twice", ErrBadConfig, cmp.Device)
		}
		compromised[cmp.Device] = cmp
	}

	// Preallocate the record slab from the expected volume (heartbeat
	// cadence plus event rate per device, plus each compromise's mean
	// cadence); growth reallocation during the append loops was the
	// simulation's dominant allocator churn.
	est := 0
	dur := end.Sub(cfg.Start)
	for _, dev := range cap.Devices {
		p := profiles[dev.Class]
		if p.HeartbeatPeriod > 0 {
			est += int(dur/p.HeartbeatPeriod) + 1
		}
		est += int(float64(cfg.Days) * 24 * p.EventRatePerHour)
	}
	for _, cmp := range cfg.Compromises {
		est += expectedCompromiseRecords(cmp.Kind, end.Sub(cmp.At))
	}
	cap.Records = make([]FlowRecord, 0, est+est/8)

	for _, dev := range cap.Devices {
		p := profiles[dev.Class]
		devRng := rand.New(rand.NewSource(cfg.Seed ^ int64(hashString(dev.Name))))
		simulateDevice(cap, dev, p, cfg, devRng)
		if cmp, ok := compromised[dev.Name]; ok {
			simulateCompromise(cap, dev, cmp, end, devRng)
		}
	}
	return cap, nil
}

// expectedCompromiseRecords is the mean number of records simulateCompromise
// emits for kind k over a span d, from each loop's mean cadence.
func expectedCompromiseRecords(k CompromiseKind, d time.Duration) int {
	s := max(d.Seconds(), 0)
	switch k {
	case CompromiseScan:
		return int(s / 4.5) // one probe every 2–7 s
	case CompromiseExfil:
		return int(s / 29.5) // one upload every 20–39 s
	case CompromiseBot:
		return int(s * 240 / (38.5 * 60)) // 2–6 min bursts at 1/s, 10–59 min apart
	}
	return 0
}

// sortByTime stably orders records by Time: tied timestamps keep their
// input order. Simulate appends each device's heartbeats, events and
// compromise traffic in time order, so the records already fall into a few
// maximal non-decreasing runs (76 for a benign 38-device capture: one for
// each device's heartbeats and one for its events). The
// runs are found by scanning, their keys are merged through a heap of run
// heads into an order array (a tie goes to the lower index, so the merge
// is stable), and the 72-byte records are then permuted in place by
// following the order's cycles. Keys are offsets from the first record,
// exact while every record lies within a time.Duration of it, which
// Simulate's bound on Days guarantees.
func sortByTime(recs []FlowRecord) {
	if len(recs) < 2 {
		return
	}
	base := recs[0].Time
	keys := make([]int64, len(recs))
	for i := range recs {
		keys[i] = int64(recs[i].Time.Sub(base))
	}
	// heads[k] is run k's next unmerged index and its end.
	type head struct{ next, end int32 }
	var heads []head
	start := 0
	for i := 1; i <= len(keys); i++ {
		if i == len(keys) || keys[i] < keys[i-1] {
			heads = append(heads, head{int32(start), int32(i)})
			start = i
		}
	}
	if len(heads) == 1 {
		return
	}
	less := func(a, b head) bool {
		ka, kb := keys[a.next], keys[b.next]
		return ka < kb || ka == kb && a.next < b.next
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heads) {
				return
			}
			if c+1 < len(heads) && less(heads[c+1], heads[c]) {
				c++
			}
			if !less(heads[c], heads[i]) {
				return
			}
			heads[i], heads[c] = heads[c], heads[i]
			i = c
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	order := make([]int32, len(recs))
	for o := range order {
		h := &heads[0]
		order[o] = h.next
		h.next++
		if h.next == h.end {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	// Position i takes the record at order[i]. Each cycle is rotated once;
	// a placed position is marked by pointing its order entry at itself.
	for i := range order {
		if int(order[i]) == i {
			continue
		}
		r := recs[i]
		j := i
		for {
			src := int(order[j])
			order[j] = int32(j)
			if src == i {
				recs[j] = r
				break
			}
			recs[j] = recs[src]
			j = src
		}
	}
}

// hashString is a small FNV-1a for deterministic per-device seeding.
func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// simulateDevice renders one device's benign traffic.
func simulateDevice(cap *Capture, dev Device, p Profile, cfg Config, rng *rand.Rand) {
	end := cap.End
	// Heartbeats.
	t := cap.Start.Add(time.Duration(rng.Int63n(int64(p.HeartbeatPeriod))))
	for t.Before(end) {
		cap.Records = append(cap.Records, FlowRecord{
			Time:      t,
			Device:    dev.Name,
			Endpoint:  p.Endpoints[0],
			BytesUp:   JitterBytes(rng, p.HeartbeatUp),
			BytesDown: JitterBytes(rng, p.HeartbeatDown),
		})
		period := float64(p.HeartbeatPeriod)
		if p.HeartbeatJitter > 0 {
			period *= 1 + p.HeartbeatJitter*(2*rng.Float64()-1)
		}
		t = t.Add(time.Duration(period))
	}
	// Events, minute-resolution thinning.
	for tm := cap.Start; tm.Before(end); tm = tm.Add(time.Minute) {
		rate := p.EventRatePerHour
		if p.ActivityLinked && !activeAt(cfg.Activity, tm) {
			rate *= p.IdleEventFraction
		}
		if rng.Float64() >= rate/60 {
			continue
		}
		ep := p.Endpoints[rng.Intn(len(p.Endpoints))]
		cap.Records = append(cap.Records, FlowRecord{
			Time:      tm.Add(time.Duration(rng.Intn(60)) * time.Second),
			Device:    dev.Name,
			Endpoint:  ep,
			BytesUp:   JitterBytes(rng, p.EventUp),
			BytesDown: JitterBytes(rng, p.EventDown),
		})
	}
}

// simulateCompromise renders post-compromise traffic on top of the benign
// behaviour (the device keeps functioning to avoid suspicion).
func simulateCompromise(cap *Capture, dev Device, cmp Compromise, end time.Time, rng *rand.Rand) {
	switch cmp.Kind {
	case CompromiseScan:
		// Probe a new host every few seconds with tiny flows.
		for t := cmp.At; t.Before(end); t = t.Add(time.Duration(2+rng.Intn(6)) * time.Second) {
			cap.Records = append(cap.Records, FlowRecord{
				Time:      t,
				Device:    dev.Name,
				Endpoint:  fmt.Sprintf("10.0.%d.%d:scan", rng.Intn(256), rng.Intn(256)),
				BytesUp:   60 + rng.Intn(60),
				BytesDown: rng.Intn(60),
			})
		}
	case CompromiseExfil:
		// Sustained bulk upload to a single foreign endpoint.
		for t := cmp.At; t.Before(end); t = t.Add(time.Duration(20+rng.Intn(20)) * time.Second) {
			cap.Records = append(cap.Records, FlowRecord{
				Time:      t,
				Device:    dev.Name,
				Endpoint:  "drop.attacker.example.net",
				BytesUp:   400_000 + rng.Intn(400_000),
				BytesDown: 500 + rng.Intn(500),
			})
		}
	case CompromiseBot:
		// DDoS waves: minutes-long bursts of maximal upload.
		t := cmp.At
		for t.Before(end) {
			burstEnd := t.Add(time.Duration(2+rng.Intn(5)) * time.Minute)
			for bt := t; bt.Before(burstEnd) && bt.Before(end); bt = bt.Add(time.Second) {
				cap.Records = append(cap.Records, FlowRecord{
					Time:      bt,
					Device:    dev.Name,
					Endpoint:  "victim.example.org",
					BytesUp:   1_000_000 + rng.Intn(250_000),
					BytesDown: 0,
				})
			}
			t = burstEnd.Add(time.Duration(10+rng.Intn(50)) * time.Minute)
		}
	}
}

// JitterBytes randomizes a byte volume by ±30%: the simulator's event
// jitter, which defenses that inject cover traffic also draw from so their
// volumes sit in the same distribution as real ones.
func JitterBytes(rng *rand.Rand, mean int) int {
	if mean <= 0 {
		return 0
	}
	f := 0.7 + 0.6*rng.Float64()
	return int(float64(mean) * f)
}
