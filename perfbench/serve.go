package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"privmem/internal/experiments"
	"privmem/internal/serve"
)

// childServe boots memoird on a loopback listener with the store off (as
// `memoirload -selfserve` does), warms every key, and then runs a closed
// loop: one connection per CPU, each sending its next request only after
// the previous response is read. Every timed response must be a 200 with
// X-Memoird-Cache: hit and the key's warm-up body.
func childServe(p servePlan, tr *tracer, ready func()) (childResult, error) {
	res := childResult{Layers: map[string]float64{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	srv := serve.New(serve.Config{})
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx) // all requests have completed; nothing to drain
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench serve: %v\n", err)
		}
	}()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: len(p.Streams)}}
	defer client.CloseIdleConnections()

	bodies := make([][]byte, len(p.Keys))
	for i, k := range p.Keys {
		body, _, err := get(client, base+k.path())
		if err != nil {
			return res, fmt.Errorf("warm %s: %w", k.path(), err)
		}
		bodies[i] = body
		res.Reports = append(res.Reports, reportDigest{k.ID, k.Seed, digest(body)})
	}
	before := snapshot(srv.Metrics())
	ready()

	lats := make([][]time.Duration, len(p.Streams))
	fails := make([]int, len(p.Streams))
	var wg sync.WaitGroup
	cpu0, ms0 := cpuNow(), memNow()
	ls, t0 := tr.begin("serve.closed_loop", -1)
	deadline := t0.Add(time.Duration(p.Seconds * float64(time.Second)))
	for c, stream := range p.Streams {
		wg.Add(1)
		go func(c int, stream []int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, 1<<16)
			for i := 0; ; i++ {
				start := time.Now()
				if !start.Before(deadline) {
					break
				}
				k := stream[i%len(stream)]
				body, cache, err := get(client, base+p.Keys[k].path())
				lat = append(lat, time.Since(start))
				if err != nil || cache != "hit" || !bytes.Equal(body, bodies[k]) {
					fails[c]++
				}
			}
			lats[c] = lat
		}(c, stream)
	}
	wg.Wait()
	wall := tr.end(ls, t0)
	res.Wall, res.CPU = wall.Seconds(), (cpuNow() - cpu0).Seconds()
	runtimeLayers(res.Layers, ms0, memNow())

	var all []time.Duration
	for c := range lats {
		all = append(all, lats[c]...)
		res.Failed += fails[c]
	}
	res.Attempted = len(all)
	if res.Failed > 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("serve: %d of %d timed responses were not a cache hit with the warm-up body", res.Failed, len(all)))
	}
	slices.Sort(all)
	res.P50, res.P99 = quantile(all, 0.50).Seconds(), quantile(all, 0.99).Seconds()

	after := snapshot(srv.Metrics())
	for name, v := range after {
		res.Layers[name] = float64(v - before[name])
	}
	if hm := res.Layers["serve.hits"] + res.Layers["serve.misses"]; hm > 0 {
		res.Layers["serve.hit_share"] = res.Layers["serve.hits"] / hm
	}
	if tr.on {
		res.Layers["serve.request_us"] = float64(quantile(all, 0.50).Nanoseconds()) / 1e3
		handlerProbe(srv, p, bodies, tr, &res)
		cacheProbe(p, bodies, tr, res.Layers)
	}
	return res, nil
}

// get issues one GET and returns the body and the X-Memoird-Cache header.
// A non-200 is an error.
func get(client *http.Client, url string) ([]byte, string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %s", resp.Status)
	}
	return body, resp.Header.Get("X-Memoird-Cache"), nil
}

// quantile is the exact nearest-rank quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// snapshot reads the server counters the benchmark reports.
func snapshot(m *serve.Metrics) map[string]int64 {
	return map[string]int64{
		"serve.hits":         m.CacheHits.Load(),
		"serve.misses":       m.CacheMisses.Load(),
		"serve.generations":  m.Generations.Load(),
		"serve.coalesced":    m.Coalesced.Load(),
		"serve.slo_breaches": m.SLOBreaches.Load(),
		"serve.write_errors": m.WriteErrors.Load(),
	}
}

// discard is a minimal http.ResponseWriter for in-process handler calls.
type discard struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.code = code }
func (d *discard) Write(b []byte) (int, error) { return d.body.Write(b) }

// handlerProbe calls Handler().ServeHTTP in-process on the first
// connection's key stream: the server's share of a request without
// net/http's connection handling, loopback or the client. It also counts
// the handler's allocations per request.
func handlerProbe(srv *serve.Server, p servePlan, bodies [][]byte, tr *tracer, res *childResult) {
	h := srv.Handler()
	stream := p.Streams[0]
	reqs := make([]*http.Request, len(p.Keys))
	for i, k := range p.Keys {
		r, err := http.NewRequest(http.MethodGet, k.path(), nil)
		if err != nil {
			res.fail("handler probe: %v", err)
			return
		}
		reqs[i] = r
	}
	w := &discard{h: http.Header{}}
	n := len(stream)
	ms0 := memNow()
	s, t := tr.begin("serve.handler", -1)
	for i := 0; i < n; i++ {
		k := stream[i]
		clear(w.h)
		w.code = http.StatusOK
		w.body.Reset()
		h.ServeHTTP(w, reqs[k])
		res.Attempted++
		if w.code != http.StatusOK || w.h.Get("X-Memoird-Cache") != "hit" || !bytes.Equal(w.body.Bytes(), bodies[k]) {
			res.fail("handler probe: %s: status %d, cache %q", p.Keys[k].path(), w.code, w.h.Get("X-Memoird-Cache"))
		}
	}
	d := tr.end(s, t)
	ms1 := memNow()
	res.Layers["serve.handler_us"] = float64(d.Nanoseconds()) / 1e3 / float64(n)
	res.Layers["serve.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	res.Layers["serve.alloc_bytes_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
}

// cacheProbe times serve.Cache.Get on the same key stream, against a cache
// holding the warm-up bodies under their canonical keys.
func cacheProbe(p servePlan, bodies [][]byte, tr *tracer, layers map[string]float64) {
	c := serve.NewCache(256)
	keys := make([]string, len(p.Keys))
	for i, k := range p.Keys {
		keys[i] = experiments.Options{Seed: k.Seed, SeedSet: true, Quick: true}.CacheKey(k.ID)
		c.Put(&serve.Entry{Key: keys[i], Text: bodies[i]})
	}
	const rounds = 8
	stream := p.Streams[0]
	hits := 0
	s, t := tr.begin("serve.cache_get", -1)
	for r := 0; r < rounds; r++ {
		for _, k := range stream {
			if _, ok := c.Get(keys[k]); ok {
				hits++
			}
		}
	}
	d := tr.end(s, t)
	runtime.KeepAlive(hits)
	layers["serve.cache_get_ns"] = float64(d.Nanoseconds()) / float64(rounds*len(stream))
}
