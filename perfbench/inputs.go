package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"

	"privmem/internal/experiments"
)

// This file is the only place that reads the workload name and the
// benchmark seed. It turns them into plain program inputs (experiment ids
// and seeds, report URLs, fleet specs); everything that calls into the
// program receives only those inputs. TestProgramSeesOnlyInputs checks it.

// pinnedSeeds are the program seeds whose outputs digests.json stores. The
// benchmark seed picks among them, so every run of every workload checks
// its outputs against stored digests. 42 is the default seed of
// cmd/figures; 7 is the held-out seed, used by no check while the
// benchmark was written.
var pinnedSeeds = []int64{42, 7, 1001, 2718, 31415, 5, 99, 123, 4242, 8080}

// pinnedSeed returns the i-th program seed for benchmark seed s.
func pinnedSeed(s int64, i int) int64 {
	n := int64(len(pinnedSeeds))
	return pinnedSeeds[((s+int64(i))%n+n)%n]
}

// serveIDs are the cheap paper artifacts the serving workload requests.
var serveIDs = []string{"f1", "f6", "t1", "t2", "t4", "t7", "t10"}

// Sizes of the serving workload and of the fleet run the traced run
// measures the fleet layers on.
const (
	serveSeeds     = 8
	serveZipfS     = 1.3
	serveStreamLen = 1 << 14 // key draws per connection; the loop cycles through them

	fleetHomes = 100_000
	fleetDays  = 2
)

// tinySuiteIDs is the suite pass of the tiny smoke test.
var tinySuiteIDs = []string{"f1", "t6"}

// skippedInTiny reports whether a per-layer metric is missing from a tiny
// traced run: the per-experiment layers of ids outside tinySuiteIDs.
func skippedInTiny(metric string) bool {
	rest, ok := strings.CutPrefix(metric, "experiments.")
	if !ok {
		return false
	}
	id, _, _ := strings.Cut(rest, ".")
	return slices.Contains(experiments.IDs(), id) && !slices.Contains(tinySuiteIDs, id)
}

// workloads lists every workload in BENCHMARK.json order.
var workloads = []string{"suite-cold", "serve-hot"}

// suitePlan is one cold pass: the experiment ids and the base seed, as
// cmd/figures -quick -workers 1 -seed <Seed> runs them.
type suitePlan struct {
	IDs  []string
	Seed int64
}

// serveKey is one report in the serving population.
type serveKey struct {
	ID   string
	Seed int64
}

// path is the report URL memoird serves the key at.
func (k serveKey) path() string {
	return fmt.Sprintf("/v1/report/%s?seed=%d&quick=true", k.ID, k.Seed)
}

// servePlan is one serving child: the key population and, per
// connection, the Zipf-drawn sequence of key indexes it requests.
type servePlan struct {
	Keys    []serveKey
	Streams [][]int
	Seconds float64
}

// fleetPlan is one fleet.Run. Workers is left to the child (nproc), and
// the digest ignores it.
type fleetPlan struct {
	Homes, Days, Variants int
	Seed                  int64
}

// key names the fleet spec in digests.json.
func (p fleetPlan) key() string {
	return fmt.Sprintf("homes=%d days=%d variants=%d seed=%d", p.Homes, p.Days, p.Variants, p.Seed)
}

// plan is everything one benchmark run feeds the program.
type plan struct {
	kind  string // "suite" or "serve"
	suite suitePlan
	// passSeeds are the program seeds of a timed run's successive suite
	// passes: every pinned seed, starting at the one the benchmark seed
	// picks, so every run covers the same inputs in another order.
	passSeeds []int64
	serve     servePlan
	// fleet is the fleet run the traced run measures the fleet layers on.
	fleet fleetPlan
}

// makePlan builds the program inputs for a workload and benchmark seed.
// tiny shrinks every workload for the smoke test.
func makePlan(workload string, seed int64, tiny bool) (plan, error) {
	p := plan{
		suite: suitePlan{IDs: experiments.IDs(), Seed: pinnedSeed(seed, 0)},
		serve: makeServePlan(seed, tiny),
		fleet: fleetPlan{Homes: fleetHomes, Days: fleetDays, Variants: 1, Seed: pinnedSeed(seed, 0)},
	}
	for i := range pinnedSeeds {
		p.passSeeds = append(p.passSeeds, pinnedSeed(seed, i))
	}
	if tiny {
		p.suite.IDs = tinySuiteIDs
		p.fleet.Homes = 64
	}
	switch workload {
	case "suite-cold":
		p.kind = "suite"
	case "serve-hot":
		p.kind = "serve"
	default:
		return plan{}, fmt.Errorf("unknown workload %q (have %v)", workload, workloads)
	}
	return p, nil
}

// makeServePlan draws the serving population: serveIDs × serveSeeds keys,
// shuffled so the hottest Zipf rank lands on a seed-chosen key, and one
// request stream per connection (nproc connections).
func makeServePlan(seed int64, tiny bool) servePlan {
	nseeds, ids := serveSeeds, serveIDs
	if tiny {
		nseeds, ids = 2, []string{"f1", "t6"}
	}
	var sp servePlan
	for _, id := range ids {
		for i := 0; i < nseeds; i++ {
			sp.Keys = append(sp.Keys, serveKey{ID: id, Seed: pinnedSeed(seed, i)})
		}
	}
	sort.Slice(sp.Keys, func(a, b int) bool { return sp.Keys[a].path() < sp.Keys[b].path() })
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(len(sp.Keys))
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(sp.Keys)-1))
	for c := 0; c < runtime.NumCPU(); c++ {
		stream := make([]int, serveStreamLen)
		for i := range stream {
			stream[i] = rank[zipf.Uint64()]
		}
		sp.Streams = append(sp.Streams, stream)
	}
	return sp
}
