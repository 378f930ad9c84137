// Command memoirctl is the interactive front door to the privmem library:
// it simulates worlds, runs attacks, and applies defenses from the command
// line.
//
// Usage:
//
//	memoirctl simulate   -seed 42 -days 7        # home energy summary
//	memoirctl attack     -seed 42 -days 7        # NIOM + NILM on the home
//	memoirctl defend     -seed 42 -days 7        # defense matrix vs NIOM
//	memoirctl localize   -seed 42 -days 365      # SunSpot/Weatherman fleet
//	memoirctl fingerprint -seed 42 -days 7       # LAN fingerprinting + shaping
//	memoirctl armsrace   -seed 42 [-quick]       # adaptive-adversary generation matrix
//	memoirctl fleet      -homes 100000 -workers 8 [-days 3] [-mix family:0.6,retired:0.4]
//	memoirctl figures    [-quick] [-id f2] [-workers 4]  # regenerate paper artifacts
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"privmem"
	"privmem/internal/experiments"
	"privmem/internal/fleet"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	cmd, rest := args[0], args[1:]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "random seed")
	days := fs.Int("days", 7, "simulated days")
	quick := fs.Bool("quick", false, "reduced workloads (figures)")
	ids := fs.String("id", "", "experiment ids (figures)")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent experiments (figures) or ingest workers (fleet)")
	homes := fs.Int("homes", 1000, "population size (fleet)")
	mix := fs.String("mix", "", "archetype mix, name:weight,... (fleet)")
	if err := fs.Parse(rest); err != nil {
		return 2
	}

	var err error
	switch cmd {
	case "simulate":
		err = cmdSimulate(*seed, *days)
	case "attack":
		err = cmdAttack(*seed, *days)
	case "defend":
		err = cmdDefend(*seed, *days)
	case "localize":
		err = cmdLocalize(*seed, *days)
	case "fingerprint":
		err = cmdFingerprint(*seed, *days)
	case "armsrace":
		err = cmdArmsRace(*seed, *quick)
	case "fleet":
		err = cmdFleet(*seed, *homes, *workers, *days, *mix, *quick)
	case "figures":
		err = cmdFigures(*seed, *quick, *ids, *workers)
	default:
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "memoirctl %s: %v\n", cmd, err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: memoirctl <simulate|attack|defend|localize|fingerprint|armsrace|fleet|figures> [flags]")
}

func cmdSimulate(seed int64, days int) error {
	w, err := privmem.NewEnergyWorld(seed, days)
	if err != nil {
		return err
	}
	start, end := w.Span()
	fmt.Printf("home simulated: %s .. %s (%d occupants)\n", start.Format("2006-01-02"), end.Format("2006-01-02"), w.Config.Occupants)
	fmt.Printf("total energy: %.1f kWh, peak %.1f kW, occupied %.0f%% of the time\n",
		w.Metered.Energy()/1000, w.Metered.Max()/1000, 100*w.Trace.Occupancy.Mean())
	profile, err := w.HourlyProfile()
	if err != nil {
		return err
	}
	fmt.Println("hourly mean power (W):")
	for h, v := range profile {
		fmt.Printf("  %02d:00 %6.0f %s\n", h, v, strings.Repeat("#", int(v/100)))
	}
	return nil
}

func cmdAttack(seed int64, days int) error {
	w, err := privmem.NewEnergyWorld(seed, days)
	if err != nil {
		return err
	}
	ev, _, err := w.OccupancyAttack()
	if err != nil {
		return err
	}
	fmt.Printf("NIOM occupancy attack: MCC=%.3f accuracy=%.3f (%s)\n",
		ev.MCC, ev.Accuracy, ev.Confusion)
	errs, _, err := w.ApplianceAttack()
	if err != nil {
		return err
	}
	fmt.Println("PowerPlay appliance tracking (error factor, 0 = perfect):")
	for _, e := range errs {
		fmt.Printf("  %-8s %.3f (%.1f kWh actual)\n", e.Device, e.ErrorFactor, e.ActualWh/1000)
	}
	return nil
}

func cmdDefend(seed int64, days int) error {
	w, err := privmem.NewEnergyWorld(seed, days)
	if err != nil {
		return err
	}
	rows, err := w.DefenseMatrix(privmem.AllDefenses())
	if err != nil {
		return err
	}
	fmt.Println("defense matrix vs NIOM occupancy attack:")
	fmt.Printf("  %-10s %-8s %-9s %s\n", "defense", "MCC", "accuracy", "cost")
	for _, r := range rows {
		fmt.Printf("  %-10s %-8.3f %-9.3f %s\n", r.Defense, r.MCC, r.Accuracy, r.CostNote)
	}
	return nil
}

func cmdLocalize(seed int64, days int) error {
	if days < 180 {
		fmt.Fprintf(os.Stderr, "note: SunSpot's seasonal fit wants 180+ days; got %d\n", days)
	}
	w, err := privmem.NewSolarWorld(seed, days)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %8s %14s %14s\n", "site", "azimuth", "sunspot km", "weatherman km")
	for _, s := range w.Sites {
		gen, err := w.Generation(s, time.Minute)
		if err != nil {
			return err
		}
		ssKm, wmKm := -1.0, -1.0
		if est, err := w.LocalizeSunSpot(gen); err == nil {
			ssKm = privmem.DistanceKm(s.Lat, s.Lon, est.Lat, est.Lon)
		}
		if hourly, err := gen.Resample(time.Hour); err == nil {
			if est, err := w.LocalizeWeatherman(hourly); err == nil {
				wmKm = privmem.DistanceKm(s.Lat, s.Lon, est.Lat, est.Lon)
			}
		}
		fmt.Printf("%-8s %8.0f %14.1f %14.1f\n", s.Name, s.AzimuthDeg, ssKm, wmKm)
	}
	return nil
}

func cmdFingerprint(seed int64, days int) error {
	hw, err := privmem.NewEnergyWorld(seed, days)
	if err != nil {
		return err
	}
	nw, err := privmem.NewNetworkWorld(seed, days, hw.Trace.Active)
	if err != nil {
		return err
	}
	id, err := nw.FingerprintDevices()
	if err != nil {
		return err
	}
	fmt.Printf("device identification accuracy: %.3f over %d devices\n",
		id.Accuracy, len(id.Predicted))
	occ, err := nw.InferOccupancyFromTraffic()
	if err != nil {
		return err
	}
	ev, err := privmem.EvaluateOccupancy(hw.Trace.Occupancy, occ)
	if err != nil {
		return err
	}
	fmt.Printf("occupancy from traffic: MCC=%.3f accuracy=%.3f\n", ev.MCC, ev.Accuracy)
	_, report, err := nw.ShapeTraffic(false)
	if err != nil {
		return err
	}
	fmt.Printf("after gateway shaping: overhead=%.2fx delay=%s worst-queue=%s\n",
		report.PaddingOverhead, report.MeanDelay, report.MaxQueueDelay.Round(time.Second))
	return nil
}

func cmdArmsRace(seed int64, quick bool) error {
	opts := experiments.Options{Seed: seed, SeedSet: true, Quick: quick}
	rep, err := experiments.Run("ar1", opts.ForExperiment("ar1"))
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	advs := make([]float64, 0, 3)
	for _, name := range []string{"adv_gateway", "adv_bucket", "adv_stp"} {
		v, err := rep.Metric(name)
		if err != nil {
			return err
		}
		advs = append(advs, v)
	}
	fmt.Printf("\nretraining advantage: gateway %+.3f, bucketed %+.3f, stp %+.3f\n",
		advs[0], advs[1], advs[2])
	return nil
}

// cmdFleet streams a simulated home population through the online attacks
// and prints the per-capita leakage summary plus throughput and memory
// figures. The summary itself is deterministic (bit-identical at any worker
// count); the throughput lines are this run's measurements and live out here
// in the command layer so the library result stays a pure function of the
// spec.
func cmdFleet(seed int64, homes, workers, days int, mix string, quick bool) error {
	spec := fleet.DefaultSpec()
	spec.Seed = seed
	spec.Homes = homes
	spec.Workers = workers
	spec.Days = days
	if quick {
		spec.Variants = 2
	}
	if mix != "" {
		parsed, err := fleet.ParseMix(mix)
		if err != nil {
			return err
		}
		spec.Mix = parsed
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	startAt := time.Now()
	res, err := fleet.Run(spec)
	if err != nil {
		return err
	}
	elapsed := time.Since(startAt)
	// Collect the run's garbage so the delta counts only what the Result
	// keeps live.
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(res)

	if err := res.Render(os.Stdout); err != nil {
		return err
	}
	homesPerSec := float64(spec.Homes) / elapsed.Seconds()
	liveBytes := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if liveBytes < 0 {
		liveBytes = 0
	}
	fmt.Printf("  throughput     %.0f homes/sec (%s total)\n", homesPerSec, elapsed.Round(time.Millisecond))
	fmt.Printf("  memory         %d bytes/home live heap delta\n", liveBytes/int64(spec.Homes))
	return nil
}

func cmdFigures(seed int64, quick bool, idsFlag string, workers int) error {
	opts := experiments.Options{Seed: seed, SeedSet: true, Quick: quick}
	ids := experiments.IDs()
	if idsFlag != "" {
		ids = strings.Split(idsFlag, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	reports, err := experiments.RunAll(context.Background(), ids, opts,
		experiments.RunAllOptions{Workers: workers})
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		fmt.Print(rep.Render())
		fmt.Println()
	}
	return err
}
