// Package privmem is the public API of the Private Memoirs of IoT Devices
// reproduction: simulators, privacy attacks, and defenses for IoT (energy
// and network) data, following Chen, Bovornkeeratiroj, Irwin, and Shenoy,
// "Private Memoirs of IoT Devices: Safeguarding User Privacy in the IoT
// Era" (ICDCS 2018).
//
// The package exposes three scenario worlds plus the experiment registry:
//
//   - Energy: a simulated home behind a smart meter, with the NIOM
//     occupancy attack, the PowerPlay/FHMM NILM attacks, and the CHPr,
//     battery, and differential-privacy defenses.
//   - Solar: rooftop PV sites under a regional weather field, with the
//     SunSpot and Weatherman localization attacks and SunDance net-meter
//     disaggregation.
//   - Network: a ~40-device IoT LAN, with the traffic-fingerprinting
//     attack and the smart-gateway quarantine and shaping defenses.
//
// Every quantity is deterministic given the seeds, so results are exactly
// reproducible. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for the paper-versus-measured record.
package privmem

import (
	"errors"
	"fmt"
	"time"

	"privmem/internal/attack/fingerprint"
	"privmem/internal/attack/fitprint"
	"privmem/internal/attack/nilm"
	"privmem/internal/attack/niom"
	"privmem/internal/attack/sundance"
	"privmem/internal/attack/sunspot"
	"privmem/internal/attack/weatherman"
	"privmem/internal/defense/battery"
	"privmem/internal/defense/chpr"
	"privmem/internal/defense/dprivacy"
	"privmem/internal/defense/gateway"
	"privmem/internal/defense/knob"
	"privmem/internal/defense/localiot"
	"privmem/internal/defense/zkmeter"
	"privmem/internal/experiments"
	"privmem/internal/fitsim"
	"privmem/internal/home"
	"privmem/internal/loads"
	"privmem/internal/meter"
	"privmem/internal/metrics"
	"privmem/internal/nettrace"
	"privmem/internal/solarsim"
	"privmem/internal/timeseries"
	"privmem/internal/weather"
)

// Series is the uniform time-series type used throughout the library.
type Series = timeseries.Series

// Home-simulation types.
type (
	// HomeConfig parameterizes the household simulator.
	HomeConfig = home.Config
	// HomeTrace is the simulator's ground-truth output.
	HomeTrace = home.Trace
	// LoadModel is a parameterized appliance model.
	LoadModel = loads.Model
)

// Attack types.
type (
	// OccupancyEvaluation scores an occupancy detector.
	OccupancyEvaluation = niom.Evaluation
	// DeviceError is one appliance's disaggregation score.
	DeviceError = nilm.DeviceError
	// SolarSite describes one rooftop PV installation.
	SolarSite = solarsim.Site
	// SunSpotEstimate is a SunSpot localization result.
	SunSpotEstimate = sunspot.Estimate
	// WeathermanEstimate is a Weatherman localization result.
	WeathermanEstimate = weatherman.Estimate
	// SunDanceResult is a net-meter disaggregation result.
	SunDanceResult = sundance.Result
	// WeatherStation is a public weather station.
	WeatherStation = weather.Station
	// LANCapture is a simulated IoT LAN trace.
	LANCapture = nettrace.Capture
	// DeviceIdentification is a fingerprinting result.
	DeviceIdentification = fingerprint.Identification
	// FitnessWorld is a simulated fitness-tracker population (§II-C).
	FitnessWorld = fitsim.World
	// FitnessActivity is one recorded workout.
	FitnessActivity = fitsim.Activity
	// HeatmapHotspot is one revealed cell of an aggregate activity map.
	HeatmapHotspot = fitprint.Hotspot
)

// Defense types.
type (
	// CHPrTank parameterizes the water heater.
	CHPrTank = chpr.Tank
	// CHPrResult is a water-heater simulation result.
	CHPrResult = chpr.Result
	// HomeBattery models a stationary battery.
	HomeBattery = battery.Battery
	// BatteryResult is a battery-defense run.
	BatteryResult = battery.Result
	// DPMechanism is a Laplace perturbation mechanism.
	DPMechanism = dprivacy.Mechanism
	// CommittedMeterGroup holds Pedersen group parameters.
	CommittedMeterGroup = zkmeter.Group
	// CommittedMeter is the privacy-preserving meter.
	CommittedMeter = zkmeter.Meter
	// GatewayAlert reports a quarantined device.
	GatewayAlert = gateway.Alert
	// ShapeReport quantifies traffic-shaping cost.
	ShapeReport = gateway.ShapeReport
	// KnobPoint is one evaluated privacy-knob setting.
	KnobPoint = knob.Point
	// PipelineResult compares cloud vs local analytics pipelines.
	PipelineResult = localiot.PipelineResult
	// ExperimentReport is a reproduced figure or table.
	ExperimentReport = experiments.Report
)

// DefaultHomeConfig returns the representative two-occupant home
// configuration.
func DefaultHomeConfig(seed int64) HomeConfig { return home.DefaultConfig(seed) }

// RandomHomeConfig derives a diverse home configuration for population
// studies.
func RandomHomeConfig(baseSeed int64, index int) HomeConfig {
	return home.RandomConfig(baseSeed, index)
}

// errBadInput indicates invalid scenario parameters.
var errBadInput = errors.New("privmem: invalid input")

// EnergyWorld is a simulated home behind a smart meter.
type EnergyWorld struct {
	// Trace is the ground truth (occupancy, per-appliance power, diary).
	Trace *HomeTrace
	// Metered is the smart-meter view of the aggregate.
	Metered *Series
	// Config records the home parameters; its Seed seeds the defenses too.
	Config HomeConfig
}

// NewEnergyWorld simulates a default two-occupant home for the given number
// of days behind a 1-minute smart meter.
func NewEnergyWorld(seed int64, days int) (*EnergyWorld, error) {
	cfg := home.DefaultConfig(seed)
	cfg.Days = days
	return NewEnergyWorldFromConfig(cfg)
}

// NewEnergyWorldFromConfig simulates a home from an explicit configuration.
// The smart meter reports at the simulation step (1 minute by default), so
// high-rate configurations get matching high-rate metering.
func NewEnergyWorldFromConfig(cfg HomeConfig) (*EnergyWorld, error) {
	tr, m, err := home.SimulateMetered(cfg, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("privmem: %w", err)
	}
	return &EnergyWorld{Trace: tr, Metered: m, Config: cfg}, nil
}

// OccupancyAttack runs the threshold NIOM attack on the metered trace and
// scores it against ground truth.
func (w *EnergyWorld) OccupancyAttack() (OccupancyEvaluation, *Series, error) {
	pred, err := niom.DetectThreshold(w.Metered, niom.DefaultConfig())
	if err != nil {
		return niom.Evaluation{}, nil, fmt.Errorf("privmem: occupancy attack: %w", err)
	}
	ev, err := niom.Evaluate(w.Trace.Occupancy, pred)
	if err != nil {
		return niom.Evaluation{}, nil, fmt.Errorf("privmem: occupancy attack: %w", err)
	}
	return ev, pred, nil
}

// ApplianceAttack runs the PowerPlay NILM attack for the paper's five
// tracked devices and scores each against ground truth.
func (w *EnergyWorld) ApplianceAttack() ([]DeviceError, map[string]*Series, error) {
	var models []loads.Model
	truth := map[string]*Series{}
	for _, name := range loads.TrackedDevices() {
		m, err := loads.Lookup(name)
		if err != nil {
			return nil, nil, fmt.Errorf("privmem: appliance attack: %w", err)
		}
		if dev, ok := w.Trace.Appliances[name]; ok {
			models = append(models, m)
			truth[name] = dev
		}
	}
	if len(models) == 0 {
		return nil, nil, fmt.Errorf("privmem: appliance attack: %w: no tracked devices in home", errBadInput)
	}
	inferred, err := nilm.PowerPlay(w.Metered, models, nilm.DefaultPowerPlayConfig())
	if err != nil {
		return nil, nil, fmt.Errorf("privmem: appliance attack: %w", err)
	}
	errs, err := nilm.Evaluate(truth, inferred)
	if err != nil {
		return nil, nil, fmt.Errorf("privmem: appliance attack: %w", err)
	}
	return errs, inferred, nil
}

// Defense selects a meter-data defense in DefenseMatrix.
type Defense int

// The defenses compared by EnergyWorld.DefenseMatrix.
const (
	DefenseNone Defense = iota + 1
	DefenseCHPr
	DefenseNILL
	DefenseStepping
	DefenseDP
)

// String implements fmt.Stringer.
func (d Defense) String() string {
	switch d {
	case DefenseNone:
		return "none"
	case DefenseCHPr:
		return "chpr"
	case DefenseNILL:
		return "nill"
	case DefenseStepping:
		return "stepping"
	case DefenseDP:
		return "dp"
	default:
		return fmt.Sprintf("Defense(%d)", int(d))
	}
}

// AllDefenses lists every defense for DefenseMatrix, in presentation order.
func AllDefenses() []Defense {
	return []Defense{DefenseNone, DefenseCHPr, DefenseNILL, DefenseStepping, DefenseDP}
}

// MatrixRow is one defense's outcome against the occupancy attack.
type MatrixRow struct {
	// Defense identifies the row.
	Defense Defense
	// MCC is the attacker's score on the defended trace.
	MCC float64
	// Accuracy is the attacker's accuracy.
	Accuracy float64
	// CostNote summarizes the defense's cost.
	CostNote string
}

// DefenseMatrix applies each defense to the world's metered trace and
// reports the residual NIOM attack quality — the discrete tradeoff points
// of §III the paper compares.
func (w *EnergyWorld) DefenseMatrix(defenses []Defense) ([]MatrixRow, error) {
	if len(defenses) == 0 {
		return nil, fmt.Errorf("privmem: defense matrix: %w: no defenses", errBadInput)
	}
	rows := make([]MatrixRow, 0, len(defenses))
	for _, d := range defenses {
		trace := w.Metered
		cost := "-"
		switch d {
		case DefenseNone:
		case DefenseCHPr:
			defended, masked, err := w.chprDefended()
			if err != nil {
				return nil, fmt.Errorf("privmem: defense matrix: %w", err)
			}
			// Re-meter at the world's own step: the 1-minute default would
			// silently resample high-rate worlds for this row only.
			mc := meter.DefaultConfig(w.Config.Seed + 1)
			mc.Interval = w.Metered.Step
			if trace, err = meter.Read(mc, defended); err != nil {
				return nil, fmt.Errorf("privmem: defense matrix: %w", err)
			}
			cost = fmt.Sprintf("%.1f kWh heater energy", masked.EnergyWh/1000)
		case DefenseNILL:
			res, err := battery.NILL(w.Metered, battery.DefaultBattery())
			if err != nil {
				return nil, fmt.Errorf("privmem: defense matrix: %w", err)
			}
			trace = res.Grid
			cost = fmt.Sprintf("%.1f kWh battery cycling", res.ThroughputWh/1000)
		case DefenseStepping:
			res, err := battery.Stepping(w.Metered, battery.DefaultBattery(), 500)
			if err != nil {
				return nil, fmt.Errorf("privmem: defense matrix: %w", err)
			}
			trace = res.Grid
			cost = fmt.Sprintf("%.1f kWh battery cycling", res.ThroughputWh/1000)
		case DefenseDP:
			noisy, err := dprivacy.PerturbSeries(dprivacy.DefaultMechanism(w.Config.Seed), w.Metered)
			if err != nil {
				return nil, fmt.Errorf("privmem: defense matrix: %w", err)
			}
			trace = noisy
			cost = "per-reading epsilon=1 distortion"
		default:
			return nil, fmt.Errorf("privmem: defense matrix: %w: unknown defense %d", errBadInput, int(d))
		}
		pred, err := niom.DetectThreshold(trace, niom.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("privmem: defense matrix (%s): %w", d, err)
		}
		ev, err := niom.Evaluate(w.Trace.Occupancy, pred)
		if err != nil {
			return nil, fmt.Errorf("privmem: defense matrix (%s): %w", d, err)
		}
		rows = append(rows, MatrixRow{Defense: d, MCC: ev.MCC, Accuracy: ev.Accuracy, CostNote: cost})
	}
	return rows, nil
}

// chprDefended returns the CHPr row's ground truth before metering: the
// rest-of-home load plus the CHPr heater. The CHPr heater replaces the
// home's naive one, if it has one, and serves the same water draws, so
// the naive heater's power is taken out of the aggregate first.
func (w *EnergyWorld) chprDefended() (*Series, *CHPrResult, error) {
	rest := w.Trace.Aggregate
	if heater, ok := w.Trace.Appliances[loads.NameWaterHeater]; ok {
		var err error
		if rest, err = rest.Sub(heater); err != nil {
			return nil, nil, err
		}
	}
	masked, err := chpr.Mask(chpr.DefaultTank(), chpr.DefaultConfig(w.Config.Seed), rest, w.Trace.WaterDraws)
	if err != nil {
		return nil, nil, err
	}
	defended, err := rest.Add(masked.HeaterPower)
	if err != nil {
		return nil, nil, err
	}
	return defended, masked, nil
}

// HourlyProfile is a convenience for dashboards: the world's mean power per
// local hour.
func (w *EnergyWorld) HourlyProfile() ([24]float64, error) {
	var out [24]float64
	var counts [24]int
	for i, v := range w.Metered.Values {
		h := w.Metered.TimeAt(i).Hour()
		out[h] += v
		counts[h]++
	}
	for h := range out {
		if counts[h] > 0 {
			out[h] /= float64(counts[h])
		}
	}
	return out, nil
}

// Span returns the world's simulated time range.
func (w *EnergyWorld) Span() (time.Time, time.Time) {
	return w.Metered.Start, w.Metered.End()
}

// SolarWorld is a regional solar scenario: a weather field, a public
// station grid, and PV sites whose telemetry the attacks consume.
type SolarWorld struct {
	// Field is the regional cloud-cover field.
	Field *weather.Field
	// Stations is the public weather dataset.
	Stations []WeatherStation
	// Sites are the PV installations.
	Sites []SolarSite

	days int
	seed int64
	// sunspotModel is the forward model every LocalizeSunSpot call shares: the
	// world's sites cover the same days.
	sunspotModel *sunspot.Model
}

// NewSolarWorld builds the 10-site fleet of Figure 5 under a fresh weather
// field spanning the given days (which should be 180+ for SunSpot's
// seasonal fit to work well).
func NewSolarWorld(seed int64, days int) (*SolarWorld, error) {
	field, stations, sites, err := solarsim.Figure5Region(seed, seed+7, days, 0.25)
	if err != nil {
		return nil, err
	}
	return &SolarWorld{
		Field: field, Stations: stations, Sites: sites, days: days, seed: seed,
		sunspotModel: sunspot.NewModel(),
	}, nil
}

// Generation simulates a site's telemetry at the given resolution.
func (w *SolarWorld) Generation(site SolarSite, step time.Duration) (*Series, error) {
	return solarsim.Generate(site, w.Field, w.Field.Start(), w.days, step, w.seed)
}

// LocalizeSunSpot runs the SunSpot attack on a generation trace.
func (w *SolarWorld) LocalizeSunSpot(gen *Series) (SunSpotEstimate, error) {
	return w.sunspotModel.Localize(gen, sunspot.DefaultConfig())
}

// LocalizeWeatherman runs the Weatherman attack on a generation trace
// against the world's public stations.
func (w *SolarWorld) LocalizeWeatherman(gen *Series) (WeathermanEstimate, error) {
	return weatherman.Localize(gen, w.Stations, weatherman.DefaultConfig())
}

// DisaggregateNetMeter runs SunDance on a net-meter trace against the
// world's public stations.
func (w *SolarWorld) DisaggregateNetMeter(net *Series) (*SunDanceResult, error) {
	return sundance.Disaggregate(net, w.Stations, sundance.DefaultConfig())
}

// DistanceKm returns the great-circle distance between two coordinates.
func DistanceKm(lat1, lon1, lat2, lon2 float64) float64 {
	return metrics.HaversineKm(lat1, lon1, lat2, lon2)
}

// NetworkWorld is an IoT-LAN scenario: a victim capture plus the attacker's
// lab capture for classifier training.
type NetworkWorld struct {
	// Victim is the observed home LAN.
	Victim *LANCapture
	// Lab is the attacker's training capture (one device per class).
	Lab *LANCapture
}

// NewNetworkWorld simulates a default ~40-device LAN for the given days,
// optionally coupling event traffic to a home's activity series.
func NewNetworkWorld(seed int64, days int, activity *Series) (*NetworkWorld, error) {
	vcfg := nettrace.DefaultConfig(seed)
	vcfg.Days = days
	vcfg.Activity = activity
	victim, err := nettrace.Simulate(vcfg)
	if err != nil {
		return nil, err
	}
	lab, err := nettrace.SimulateLab(seed + 1)
	if err != nil {
		return nil, err
	}
	return &NetworkWorld{Victim: victim, Lab: lab}, nil
}

// FingerprintDevices trains on the lab capture and identifies every victim
// device from flow metadata.
func (w *NetworkWorld) FingerprintDevices() (*DeviceIdentification, error) {
	clf, err := fingerprint.Train(w.Lab, time.Hour)
	if err != nil {
		return nil, err
	}
	return fingerprint.Identify(clf, w.Victim)
}

// InferOccupancyFromTraffic predicts occupancy from the victim LAN's
// metadata alone.
func (w *NetworkWorld) InferOccupancyFromTraffic() (*Series, error) {
	return fingerprint.InferOccupancy(w.Victim, fingerprint.DefaultOccupancyConfig())
}

// ShapeTraffic applies the gateway shaping defense to the victim capture
// and returns the shaped view with its cost report.
func (w *NetworkWorld) ShapeTraffic(uniform bool) (*LANCapture, *ShapeReport, error) {
	cfg := gateway.DefaultShapeConfig()
	cfg.Uniform = uniform
	return gateway.Shape(w.Victim, cfg)
}

// EvaluateOccupancy scores any binary occupancy prediction against ground
// truth over waking hours (8am-11pm).
func EvaluateOccupancy(truth, predicted *Series) (OccupancyEvaluation, error) {
	return niom.EvaluateDaytime(truth, predicted, 8, 23)
}

// EvaluateOccupancyAllDay scores a prediction over all hours.
func EvaluateOccupancyAllDay(truth, predicted *Series) (OccupancyEvaluation, error) {
	return niom.Evaluate(truth, predicted)
}

// RunExperiment reproduces one of the paper's figures or tables by id
// ("f1", "f2", "f5", "f6", "t1".."t10"); quick shrinks the workload.
func RunExperiment(id string, quick bool) (*ExperimentReport, error) {
	return experiments.Run(id, experiments.Options{Quick: quick})
}

// ExperimentIDs lists every reproducible artifact in presentation order.
func ExperimentIDs() []string { return experiments.IDs() }

// ReadMeter samples a ground-truth power series through a default 1-minute
// smart meter.
func ReadMeter(seed int64, truth *Series) (*Series, error) {
	return meter.Read(meter.DefaultConfig(seed), truth)
}

// NewFitnessWorld simulates the default 40-user fitness-tracker town of
// §II-C, optionally adding the Strava-scenario remote facility.
func NewFitnessWorld(seed int64, withFacility bool) (*FitnessWorld, error) {
	w, err := fitsim.Simulate(fitsim.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	if withFacility {
		if _, err := w.AddFacility(fitsim.DefaultFacility(seed)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// InferHomeLocation runs the §II-C endpoint-clustering attack on a user's
// activities.
func InferHomeLocation(acts []FitnessActivity) (lat, lon float64, err error) {
	return fitprint.InferHome(acts)
}

// ActivityHeatmap builds the aggregate public heatmap with optional
// k-anonymity suppression (minUsers 0 disables it).
func ActivityHeatmap(w *FitnessWorld, cellKm float64, minUsers int) ([]HeatmapHotspot, error) {
	return fitprint.Heatmap(w, cellKm, minUsers)
}
