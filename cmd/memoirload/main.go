// Command memoirload is an open-loop load generator for memoird: it fires
// report requests at a fixed arrival rate (arrivals are scheduled by the
// clock, never gated on responses — the open-loop discipline that surfaces
// queueing collapse closed-loop generators hide), draws the request
// population from a Zipf distribution over experiment×seed (a few hot
// reports, a long cold tail, like real dashboard traffic), and reports the
// latency distribution as one `go test -bench`-style line.
//
// Usage:
//
//	memoirload -addr http://host:8372      # load an already-running daemon
//	memoirload -selfserve                  # boot an in-process memoird first
//	memoirload -rps 200 -duration 10s      # open-loop arrival schedule
//	memoirload -experiments t6,f1 -seeds 20 -zipf-s 1.3
//	                                       # request-population shape
//	memoirload -warm                       # prime every key before timing
//
// The output line carries mean latency (ns/op), p50/p95/p99 upper bounds in
// microseconds (from the same log2-bucketed histogram memoird serves at
// /metrics), achieved request rate, and error count:
//
//	BenchmarkMemoirLoad  985  120345 ns/op  812 p50-us  4095 p95-us  ...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privmem/internal/experiments"
	"privmem/internal/metrics"
	"privmem/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// target is one scheduled request: its arrival offset from the run start
// and the report it asks for.
type target struct {
	at   time.Duration
	path string
}

// run is the testable entry point. Exit codes: 0 on a completed run, 1 on
// setup failure or an all-errors run, 2 on a flag error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memoirload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "", "target memoird base URL (e.g. http://127.0.0.1:8372)")
		selfserve = fs.Bool("selfserve", false, "boot an in-process memoird on a random port and load that")
		rps       = fs.Float64("rps", 50, "open-loop arrival rate, requests per second")
		duration  = fs.Duration("duration", 2*time.Second, "timed run length")
		ids       = fs.String("experiments", "", "comma-separated experiment ids to load (default: all)")
		seeds     = fs.Int("seeds", 20, "number of distinct seeds in the request population")
		zipfS     = fs.Float64("zipf-s", 1.3, "Zipf exponent over the experiment×seed population (> 1)")
		quick     = fs.Bool("quick", true, "request quick-scale reports")
		warm      = fs.Bool("warm", false, "request every key once, untimed, before the run")
		seed      = fs.Int64("seed", 1, "generator seed for the arrival schedule")
		reqTO     = fs.Duration("request-timeout", 30*time.Second, "per-request client timeout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*addr == "") == !*selfserve {
		fmt.Fprintln(stderr, "memoirload: exactly one of -addr or -selfserve is required")
		return 2
	}
	if *rps <= 0 || *duration <= 0 || *seeds < 1 || *zipfS <= 1 {
		fmt.Fprintln(stderr, "memoirload: -rps and -duration must be positive, -seeds >= 1, -zipf-s > 1")
		return 2
	}

	base := *addr
	if *selfserve {
		srv, shutdown, err := bootLocal()
		if err != nil {
			fmt.Fprintf(stderr, "memoirload: selfserve: %v\n", err)
			return 1
		}
		defer shutdown()
		base = srv
	}

	idList := experiments.IDs()
	if *ids != "" {
		idList = strings.Split(*ids, ",")
	}
	targets := schedule(idList, *seeds, *zipfS, *quick, *seed, *rps, *duration)

	client := &http.Client{Timeout: *reqTO}
	if *warm {
		for _, path := range warmPaths(idList, *seeds, *quick) {
			if err := probe(client, base+path); err != nil {
				fmt.Fprintf(stderr, "memoirload: warm %s: %v\n", path, err)
			}
		}
	}

	hist, errCount := fire(client, base, targets)

	n := int64(len(targets)) - errCount
	if n <= 0 {
		fmt.Fprintf(stderr, "memoirload: all %d requests failed\n", len(targets))
		return 1
	}
	meanNs := hist.Sum() * 1000 / n
	achieved := float64(len(targets)) / duration.Seconds()
	fmt.Fprintf(stdout, "BenchmarkMemoirLoad \t%d \t%d ns/op \t%d p50-us \t%d p95-us \t%d p99-us \t%.1f rps \t%d errors\n",
		n, meanNs,
		hist.Quantile(0.50), hist.Quantile(0.95), hist.Quantile(0.99),
		achieved, errCount)
	return 0
}

// schedule lays out the open-loop arrival plan: fixed inter-arrival gaps at
// the target rate, each arrival aimed at a Zipf-ranked (experiment, seed)
// pair. The whole plan is materialized up front so the hot loop does no
// random drawing.
func schedule(ids []string, seeds int, zipfS float64, quick bool, seed int64, rps float64, d time.Duration) []target {
	rng := rand.New(rand.NewSource(seed))
	population := warmPaths(ids, seeds, quick)
	// Shuffle so Zipf rank 0 (the hottest key) is not always ids[0]/seed 0.
	rng.Shuffle(len(population), func(i, j int) { population[i], population[j] = population[j], population[i] })
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(population)-1))

	n := int(rps * d.Seconds())
	if n < 1 {
		n = 1
	}
	gap := time.Duration(float64(time.Second) / rps)
	targets := make([]target, n)
	for i := range targets {
		targets[i] = target{at: time.Duration(i) * gap, path: population[zipf.Uint64()]}
	}
	return targets
}

// warmPaths enumerates every key in the population once, in id-major
// order: the -warm pass and, before its shuffle, schedule's population.
func warmPaths(ids []string, seeds int, quick bool) []string {
	paths := make([]string, 0, len(ids)*seeds)
	for _, id := range ids {
		for s := 0; s < seeds; s++ {
			paths = append(paths, fmt.Sprintf("/v1/report/%s?seed=%d&quick=%t", id, s, quick))
		}
	}
	return paths
}

// fire executes the plan: each arrival launches at its scheduled offset
// regardless of how many earlier requests are still in flight, and every
// completed request records its latency in the shared histogram.
func fire(client *http.Client, base string, targets []target) (*metrics.Histogram, int64) {
	var hist metrics.Histogram
	var errCount atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, tg := range targets {
		if sleep := tg.at - time.Since(start); sleep > 0 {
			time.Sleep(sleep)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqStart := time.Now()
			if err := probe(client, base+tg.path); err != nil {
				errCount.Add(1)
				return
			}
			hist.Observe(time.Since(reqStart).Microseconds())
		}()
	}
	wg.Wait()
	return &hist, errCount.Load()
}

// probe issues one GET, drains the body (connection reuse), and folds
// non-200s into errors.
func probe(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return nil
}

// bootLocal starts an in-process memoird on a loopback port and returns
// its base URL plus a shutdown func.
func bootLocal() (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := serve.New(serve.Config{})
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "memoirload: selfserve: %v\n", err)
		}
	}()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "memoirload: selfserve shutdown: %v\n", err)
		}
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
