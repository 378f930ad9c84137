package fleet

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"privmem/internal/attack/fingerprint"
	"privmem/internal/attack/niom"
	"privmem/internal/hmm"
	"privmem/internal/home"
	"privmem/internal/meter"
	"privmem/internal/metrics"
	"privmem/internal/nettrace"
	"privmem/internal/par"
	"privmem/internal/seeds"
)

// chunk is one simulated (day, archetype, variant) slab, shared by every
// home of that variant. Everything inside is read-only after construction
// (ingest shards share the pointer), and its size is a few kilobytes
// regardless of population or horizon.
type chunk struct {
	// agg is the variant's metered aggregate at step, day-factor applied,
	// before per-home scaling and noise.
	agg []float64
	// truthAct is the per-analysis-window majority label of the variant's
	// ground-truth activity (occupant present and awake) — the signal power
	// draw and device traffic both follow.
	truthAct []uint8
	// fhmmOn is the incremental FHMM decoder's per-window activity verdict
	// for the variant.
	fhmmOn []uint8
	// events counts event-scale network flows per window.
	events []int32
	// noise is the archetype's per-home meter noise std.
	noise float64
}

// homeState is one home's entire footprint in the run: the online NIOM
// detector, the home's private generator, and a handful of counters. Its
// size is fixed at init — the sum over homes is the run's dominant, and
// constant, allocation.
type homeState struct {
	stream *niom.Stream
	rng    rng
	// scale is the home's load multiplier; netScale its event-count
	// multiplier.
	scale, netScale float64
	// Confusion tallies per attack surface.
	niomCorrect, niomTotal uint32
	netCorrect, netTotal   uint32
	fhmmCorrect, fhmmTotal uint32
	// Welford accumulator over perturbed event counts, driving the
	// streaming fingerprint z-score.
	n, mean, m2 float64
	maxZ        float64
}

// archPlan is one archetype's contiguous home range with its derived seeds.
type archPlan struct {
	arch         Archetype
	lo, hi       int
	seed         int64
	variantSeeds []int64
}

// Quantiles is a per-capita distribution summary (p50/p95/p99).
type Quantiles struct {
	P50, P95, P99 float64
}

// ArchCount reports how many homes an archetype received.
type ArchCount struct {
	Name  string
	Homes int
}

// Result is a fleet run's deterministic summary: a pure function of the
// spec, bit-identical at every worker count (the suite law
// FleetDeterministic). It deliberately contains no wall-clock or memory
// figures — the CLI layer measures those around the call.
type Result struct {
	Homes, Workers, Days int
	Variants             int
	WindowsPerHome       int
	Mix                  []ArchCount
	// NIOMAccuracy, NetAccuracy, FHMMAccuracy are per-capita distributions
	// of each online attack's per-home accuracy (fractions in [0, 1]).
	NIOMAccuracy, NetAccuracy, FHMMAccuracy Quantiles
	// MaxZ is the per-capita distribution of each home's largest
	// fingerprint z-score excursion.
	MaxZ Quantiles
}

// Render writes the fixed-format summary. Byte-identical across runs of the
// same spec at any worker count.
func (r *Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "fleet: %d homes, %d days, %d workers, %d variants/archetype, %d windows/home\n",
		r.Homes, r.Days, r.Workers, r.Variants, r.WindowsPerHome); err != nil {
		return err
	}
	for _, m := range r.Mix {
		if _, err := fmt.Fprintf(w, "  mix %-10s %d homes\n", m.Name, m.Homes); err != nil {
			return err
		}
	}
	rows := []struct {
		name string
		q    Quantiles
	}{
		{"niom_accuracy", r.NIOMAccuracy},
		{"net_accuracy", r.NetAccuracy},
		{"fhmm_accuracy", r.FHMMAccuracy},
		{"max_zscore", r.MaxZ},
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "  %-14s p50=%.6f p95=%.6f p99=%.6f\n",
			row.name, row.q.P50, row.q.P95, row.q.P99); err != nil {
			return err
		}
	}
	return nil
}

// runner holds one fleet run's shared state.
type runner struct {
	spec   Spec
	plans  []archPlan
	states []homeState
	// decoders[arch][variant] is the incremental FHMM decoder whose delta
	// row is carried across the whole horizon (built from prep tables
	// shared per archetype).
	decoders [][]*hmm.StreamDecoder
	// chunks[arch*Variants+variant] is the current day's chunk.
	chunks []*chunk
	// scratch[w] is ingest shard w's NIOM scratch. Each is its own
	// allocation: packed into one slice, neighbouring shards' structs share
	// cache lines that every window boundary writes.
	scratch []*niom.Scratch
	// occ decides what counts as a traffic event (a flow moving at least
	// EventBytes) and how many events per window read as activity
	// (MinEvents). Its Window is unused: the fleet counts per Window.
	occ fingerprint.OccupancyConfig
}

// Run simulates the fleet day by day and returns its summary.
func Run(spec Spec) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r, err := newRunner(spec)
	if err != nil {
		return nil, err
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	return r.result(), nil
}

// newRunner builds the plan and the per-home state.
func newRunner(spec Spec) (*runner, error) {
	r := &runner{
		spec:    spec,
		scratch: make([]*niom.Scratch, spec.Workers),
		occ:     fingerprint.DefaultOccupancyConfig(),
	}
	for w := range r.scratch {
		r.scratch[w] = &niom.Scratch{}
	}

	mix := spec.effectiveMix()
	counts := assignCounts(spec.Homes, mix)
	lo := 0
	for i, m := range mix {
		arch, _ := archetypeByName(m.Archetype)
		p := archPlan{
			arch: arch,
			lo:   lo,
			hi:   lo + counts[i],
			seed: seeds.SubSeed(spec.Seed, "archetype:"+arch.Name),
		}
		for v := 0; v < spec.Variants; v++ {
			p.variantSeeds = append(p.variantSeeds,
				seeds.SubSeed(p.seed, "variant:"+strconv.Itoa(v)))
		}
		r.plans = append(r.plans, p)
		lo = p.hi
	}

	// One factorial decoder per (archetype, variant): a background chain and
	// an activity chain whose joint Viterbi is decoded incrementally, delta
	// carried across every window of the horizon.
	r.chunks = make([]*chunk, len(r.plans)*spec.Variants)
	r.decoders = make([][]*hmm.StreamDecoder, len(r.plans))
	for ai, p := range r.plans {
		f, err := archFactorial(p.arch)
		if err != nil {
			return nil, fmt.Errorf("fleet: archetype %s: %w", p.arch.Name, err)
		}
		r.decoders[ai] = make([]*hmm.StreamDecoder, spec.Variants)
		for v := range r.decoders[ai] {
			d, err := f.NewStreamDecoder(samplesPerWindow)
			if err != nil {
				return nil, fmt.Errorf("fleet: %w", err)
			}
			r.decoders[ai][v] = d
		}
	}

	r.states = make([]homeState, spec.Homes)
	ncfg := niom.Config{Window: Window}
	for _, p := range r.plans {
		for h := p.lo; h < p.hi; h++ {
			st := &r.states[h]
			st.rng.s = uint64(seeds.SubSeedIndex(spec.Seed, "home", h))
			st.scale = 1 + p.arch.ScaleJitter*(2*st.rng.float64v()-1)
			st.netScale = 0.8 + 0.4*st.rng.float64v()
			stream, err := niom.NewStream(ncfg, step, history, niom.ModeThreshold)
			if err != nil {
				return nil, fmt.Errorf("fleet: %w", err)
			}
			st.stream = stream
		}
	}
	return r, nil
}

// archFactorial builds the archetype's two-chain factorial model: a cycling
// background load and an occupant-activity load sized to the archetype.
func archFactorial(a Archetype) (*hmm.Factorial, error) {
	activity := 350 + 180*a.ActivityRatePerHour
	return hmm.NewFactorial([]*hmm.Model{
		{
			Initial: []float64{0.6, 0.4},
			Trans:   [][]float64{{0.85, 0.15}, {0.3, 0.7}},
			Means:   []float64{35, 160},
			Stds:    []float64{20, 45},
		},
		{
			Initial: []float64{0.7, 0.3},
			Trans:   [][]float64{{0.9, 0.1}, {0.25, 0.75}},
			Means:   []float64{0, activity},
			Stds:    []float64{30, 60 + 40*a.ScaleJitter},
		},
	}, 40+a.MeterNoiseW)
}

// run advances the whole population one simulated day at a time.
func (r *runner) run() error {
	for day := range r.spec.Days {
		if err := r.runDay(day); err != nil {
			return err
		}
	}
	return nil
}

// runDay builds every (archetype, variant) chunk of the day, then advances
// every home through its variant's chunk. A variant's decoder is pushed only
// by its own chunk build and a home's generator only by its own ingest, both
// in day order, so the schedule inside either fan-out cannot reach the
// result. A panic in either fan-out re-raises here, on the caller's
// goroutine.
func (r *runner) runDay(day int) error {
	dayStart := fleetStart.Add(time.Duration(day) * 24 * time.Hour)
	factors := make([]float64, len(r.plans))
	for ai := range r.plans {
		p := &r.plans[ai]
		if p.lo == p.hi {
			continue
		}
		field, err := p.arch.cloudField(seeds.SubSeed(p.seed, "weather-day"+strconv.Itoa(day)), dayStart)
		if err != nil {
			return fmt.Errorf("fleet weather: %w", err)
		}
		factors[ai] = p.arch.dayFactor(dayStart, field.CloudAt(p.arch.Lat, p.arch.Lon, dayStart.Add(12*time.Hour)))
	}
	V := r.spec.Variants
	err := par.For(len(r.chunks), func(i int) error {
		ai, v := i/V, i%V
		if p := &r.plans[ai]; p.lo == p.hi {
			return nil
		}
		c, err := r.buildChunk(ai, v, day, factors[ai])
		r.chunks[i] = c
		return err
	})
	if err != nil {
		return err
	}
	return par.For(r.spec.Workers, func(w int) error {
		r.ingest(w)
		return nil
	})
}

// buildChunk simulates one archetype variant for one day: household load
// through the meter, LAN traffic coupled to the household's activity, the
// variant-level incremental FHMM decode, and the per-window truth labels.
func (r *runner) buildChunk(ai, v, day int, dayFactor float64) (*chunk, error) {
	p := &r.plans[ai]
	vs := p.variantSeeds[v]
	hcfg := p.arch.homeConfig(vs, day)
	tr, err := home.Simulate(hcfg)
	if err != nil {
		return nil, fmt.Errorf("fleet home day %d: %w", day, err)
	}
	agg, err := meter.Read(meter.Config{
		Seed:          seeds.SubSeed(vs, "meter-day"+strconv.Itoa(day)),
		Interval:      step,
		QuantizationW: 1,
	}, tr.Aggregate)
	if err != nil {
		return nil, fmt.Errorf("fleet meter day %d: %w", day, err)
	}
	for i := range agg.Values {
		agg.Values[i] *= dayFactor
	}
	if wantSamples := windowsPerDay * samplesPerWindow; len(agg.Values) != wantSamples {
		return nil, fmt.Errorf("%w: day yields %d samples, want %d",
			ErrBadSpec, len(agg.Values), wantSamples)
	}

	c := &chunk{
		agg:      agg.Values,
		truthAct: windowMajority(tr.Active.Values, windowsPerDay),
		events:   make([]int32, windowsPerDay),
		noise:    p.arch.MeterNoiseW,
	}

	// Incremental FHMM decode: the variant's decoder carries its delta row
	// across days, emitting one window of joint states per analysis window.
	dec := r.decoders[ai][v]
	c.fhmmOn = make([]uint8, 0, windowsPerDay)
	for _, x := range c.agg {
		if states, ok := dec.Push(x); ok {
			on := 0
			for _, s := range states[1] {
				if s == 1 {
					on++
				}
			}
			var lbl uint8
			if 2*on >= samplesPerWindow {
				lbl = 1
			}
			c.fhmmOn = append(c.fhmmOn, lbl)
		}
	}
	if len(c.fhmmOn) != windowsPerDay {
		return nil, fmt.Errorf("%w: decoder emitted %d windows, want %d",
			ErrBadSpec, len(c.fhmmOn), windowsPerDay)
	}

	// Network side: one day of LAN traffic driven by the household's
	// activity, reduced to per-window event counts.
	cap, err := nettrace.Simulate(p.arch.netConfig(vs, day, tr.Active))
	if err != nil {
		return nil, fmt.Errorf("fleet nettrace day %d: %w", day, err)
	}
	dayStart := fleetStart.Add(time.Duration(day) * 24 * time.Hour)
	for _, rec := range cap.Records {
		if rec.BytesUp+rec.BytesDown < r.occ.EventBytes {
			continue
		}
		if w := nettrace.WindowIndex(dayStart, rec.Time, Window); w >= 0 && w < windowsPerDay {
			c.events[w]++
		}
	}
	return c, nil
}

// windowMajority folds a day of per-minute 0/1 truth samples into per-window
// majority labels (ties label 1: half-occupied windows read as occupied).
func windowMajority(vals []float64, windows int) []uint8 {
	out := make([]uint8, windows)
	per := len(vals) / windows
	if per == 0 {
		return out
	}
	for w := 0; w < windows; w++ {
		ones := 0
		for _, v := range vals[w*per : (w+1)*per] {
			if v >= 0.5 {
				ones++
			}
		}
		if 2*ones >= per {
			out[w] = 1
		}
	}
	return out
}

// ingest advances shard w's homes, h ≡ w (mod Workers), through the day's
// chunks; home h reads its archetype's variant h mod Variants. Shards
// interleave rather than take contiguous ranges because homes are laid out
// by archetype and per-home cost differs by archetype.
func (r *runner) ingest(w int) {
	K, V := r.spec.Workers, r.spec.Variants
	sc := r.scratch[w]
	for ai := range r.plans {
		p := &r.plans[ai]
		day := r.chunks[ai*V : (ai+1)*V]
		for h := p.lo + ((w-p.lo)%K+K)%K; h < p.hi; h += K {
			r.processHome(&r.states[h], day[h%V], sc)
		}
	}
}

// processHome advances one home through one chunk: per-sample noising into
// the online NIOM detector, and per window the three live leakage signals.
// All randomness comes from the home's own generator in a fixed draw order,
// so the result is independent of which shard runs it and when.
func (r *runner) processHome(st *homeState, c *chunk, sc *niom.Scratch) {
	wi := 0
	for _, v := range c.agg {
		x := v*st.scale + st.rng.norm()*c.noise
		if x < 0 {
			x = 0
		}
		lbl, ok := st.stream.Push(x, sc)
		if !ok {
			continue
		}
		w := wi
		wi++
		// Power and traffic both track the household being awake and active;
		// sleeping occupants sit at baseline, which is why batch NIOM has a
		// daytime evaluation. The live truth signal is therefore activity.
		active := c.truthAct[w] == 1

		// Online NIOM vs ground truth.
		if (lbl >= 0.5) == active {
			st.niomCorrect++
		}
		st.niomTotal++

		// Network occupancy: the variant's event count, scaled and noised
		// per home, against the fingerprint event threshold.
		cnt := float64(c.events[w])*st.netScale + 0.75*st.rng.norm()
		if (cnt >= float64(r.occ.MinEvents)) == active {
			st.netCorrect++
		}
		st.netTotal++

		// Streaming z-score of the event count against the home's own
		// running distribution (predictive: scored before absorbing).
		if st.n >= 2 {
			std := math.Sqrt(st.m2 / (st.n - 1))
			if std > 0 {
				st.maxZ = max(st.maxZ, math.Abs(cnt-st.mean)/std)
			}
		}
		st.n++
		d := cnt - st.mean
		st.mean += d / st.n
		st.m2 += d * (cnt - st.mean)

		// Variant-level FHMM verdict vs the variant's activity truth.
		if (c.fhmmOn[w] == 1) == (c.truthAct[w] == 1) {
			st.fhmmCorrect++
		}
		st.fhmmTotal++
	}
}

// micro converts a non-negative float to integer micro-units.
func micro(v float64) int64 {
	return int64(math.Round(v * 1e6))
}

// result folds every home's counters, in micro-units, into the per-capita
// histograms and reads the summary off them.
func (r *runner) result() *Result {
	// Accuracies live in [0, 1]: 2000 linear buckets give 0.05% resolution.
	// Max z-scores are open-ended but small; clamp at 64.
	histNIOM := metrics.NewFixedHistogram(2000, 1_000_000)
	histNet := metrics.NewFixedHistogram(2000, 1_000_000)
	histFHMM := metrics.NewFixedHistogram(2000, 1_000_000)
	histZ := metrics.NewFixedHistogram(2048, 64_000_000)
	for h := range r.states {
		st := &r.states[h]
		if st.niomTotal == 0 {
			continue
		}
		histNIOM.Observe(micro(float64(st.niomCorrect) / float64(st.niomTotal)))
		histNet.Observe(micro(float64(st.netCorrect) / float64(st.netTotal)))
		histFHMM.Observe(micro(float64(st.fhmmCorrect) / float64(st.fhmmTotal)))
		histZ.Observe(micro(st.maxZ))
	}
	res := &Result{
		Homes:          r.spec.Homes,
		Workers:        r.spec.Workers,
		Days:           r.spec.Days,
		Variants:       r.spec.Variants,
		WindowsPerHome: r.spec.Days * windowsPerDay,
		NIOMAccuracy:   quantilesOf(histNIOM),
		NetAccuracy:    quantilesOf(histNet),
		FHMMAccuracy:   quantilesOf(histFHMM),
		MaxZ:           quantilesOf(histZ),
	}
	for _, p := range r.plans {
		res.Mix = append(res.Mix, ArchCount{Name: p.arch.Name, Homes: p.hi - p.lo})
	}
	return res
}

// quantilesOf reads a micro-unit histogram back into fractional quantiles.
func quantilesOf(h *metrics.FixedHistogram) Quantiles {
	return Quantiles{
		P50: float64(h.Quantile(0.50)) / 1e6,
		P95: float64(h.Quantile(0.95)) / 1e6,
		P99: float64(h.Quantile(0.99)) / 1e6,
	}
}
