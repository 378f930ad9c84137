package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privmem/internal/experiments"
)

// decodeJSONError asserts the canonical error shape {"error":..., "status":...}.
func decodeJSONError(t *testing.T, body []byte, wantStatus int) string {
	t.Helper()
	var e struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not the JSON error shape: %v\n%s", err, body)
	}
	if e.Status != wantStatus || e.Error == "" {
		t.Fatalf("error shape = %+v, want status %d and non-empty error", e, wantStatus)
	}
	return e.Error
}

// stallThen returns a RunFunc that waits d before calling run. The wait
// honors the request context and fails with ctx.Err(), as
// experiments.RunContext does, so a stall past the budget is the usual 504.
func stallThen(d time.Duration, run RunFunc) RunFunc {
	return func(ctx context.Context, id string, opts experiments.Options) (*experiments.Report, error) {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return run(ctx, id, opts)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// sameShardSeed returns a seed above seed whose cache key for id lands in
// the same shard of c, so a cache with one entry per shard holds only one
// of the two reports.
func sameShardSeed(c *Cache, id string, seed int64) int64 {
	key := func(s int64) string { return experiments.Options{Seed: s, SeedSet: true}.CacheKey(id) }
	for s := seed + 1; ; s++ {
		if c.shardFor(key(s)) == c.shardFor(key(seed)) {
			return s
		}
	}
}

// TestChaosGenerateError injects a backend failure through the RunFunc: the
// request gets a JSON 500, the failure is counted but never cached, and the
// next identical request regenerates successfully.
func TestChaosGenerateError(t *testing.T) {
	f := &fakeRun{err: errors.New("injected backend failure")}
	s, h := newTestServer(t, Config{Run: f.run})

	rec := get(t, h, "/v1/report/f1?seed=3")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("faulted request = %d, want 500", rec.Code)
	}
	decodeJSONError(t, rec.Body.Bytes(), http.StatusInternalServerError)
	m := s.Metrics()
	if m.GenerationErrors.Load() != 1 || m.Generations.Load() != 1 {
		t.Errorf("gen errors/generations = %d/%d, want 1/1", m.GenerationErrors.Load(), m.Generations.Load())
	}

	// The failure must not be cached: the retry is a miss that generates.
	f.err = nil
	rec = get(t, h, "/v1/report/f1?seed=3")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Memoird-Cache") != "miss" {
		t.Fatalf("retry = %d/%q, want 200/miss", rec.Code, rec.Header().Get("X-Memoird-Cache"))
	}
	if f.invocations.Load() != 2 || m.Generations.Load() != 2 || m.GenerationErrors.Load() != 1 {
		t.Errorf("runs/generations/gen errors = %d/%d/%d, want 2/2/1",
			f.invocations.Load(), m.Generations.Load(), m.GenerationErrors.Load())
	}
}

// TestChaosStallTimeout stalls generation past the request budget: the
// RunFunc waits on its context, so the stalled leader and every coalesced
// follower time out with a JSON 504, and each started generation counts
// as a generation error.
func TestChaosStallTimeout(t *testing.T) {
	f := &fakeRun{started: make(chan struct{}), release: make(chan struct{})}
	s, h := newTestServer(t, Config{Run: f.run, Timeout: 200 * time.Millisecond})

	const clients = 4
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		if i == 1 {
			<-f.started // the followers arrive while the leader stalls
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := get(t, h, "/v1/report/t1?seed=8")
			codes[i] = rec.Code
			if rec.Code == http.StatusGatewayTimeout {
				decodeJSONError(t, rec.Body.Bytes(), http.StatusGatewayTimeout)
			}
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusGatewayTimeout {
			t.Errorf("request %d = %d, want 504", i, code)
		}
	}
	m := s.Metrics()
	runs := f.invocations.Load()
	if runs < 1 || runs+m.Coalesced.Load() != clients {
		t.Errorf("runs/coalesced = %d/%d, want %d requests in total", runs, m.Coalesced.Load(), clients)
	}
	if m.Generations.Load() != runs || m.GenerationErrors.Load() != runs {
		t.Errorf("generations/gen errors = %d/%d, want %d/%d", m.Generations.Load(), m.GenerationErrors.Load(), runs, runs)
	}
	if got := m.Timeouts.Load(); got != clients {
		t.Errorf("timeouts = %d, want %d", got, clients)
	}
}

// TestChaosStallWithinBudget proves a stall shorter than the budget only
// delays the response: the request still succeeds and populates the cache.
func TestChaosStallWithinBudget(t *testing.T) {
	f := &fakeRun{}
	_, h := newTestServer(t, Config{Run: stallThen(20*time.Millisecond, f.run), Timeout: 5 * time.Second})
	if rec := get(t, h, "/v1/report/f1?seed=2"); rec.Code != http.StatusOK {
		t.Fatalf("stalled-but-in-budget request = %d, want 200", rec.Code)
	}
	if rec := get(t, h, "/v1/report/f1?seed=2"); rec.Header().Get("X-Memoird-Cache") != "hit" {
		t.Errorf("second request source = %q, want hit", rec.Header().Get("X-Memoird-Cache"))
	}
	if n := f.invocations.Load(); n != 1 {
		t.Errorf("simulations = %d, want 1", n)
	}
}

// TestChaosPanicRecovery panics inside the RunFunc: the request gets a JSON
// 500 naming the panic, the panic and generation-error counters increment,
// and the server keeps serving.
func TestChaosPanicRecovery(t *testing.T) {
	var calls atomic.Int64
	run := func(ctx context.Context, id string, opts experiments.Options) (*experiments.Report, error) {
		if calls.Add(1) == 1 {
			panic(fmt.Sprintf("bad generator for %s", id))
		}
		return &experiments.Report{ID: id, Title: "ok"}, nil
	}
	s, h := newTestServer(t, Config{Run: run})
	rec := get(t, h, "/v1/report/t6?seed=4")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicked request = %d, want 500", rec.Code)
	}
	msg := decodeJSONError(t, rec.Body.Bytes(), http.StatusInternalServerError)
	if !strings.Contains(msg, "panic") {
		t.Errorf("error message %q does not name the panic", msg)
	}
	m := s.Metrics()
	if m.Panics.Load() != 1 || m.GenerationErrors.Load() != 1 {
		t.Errorf("panics/genErrors = %d/%d, want 1/1", m.Panics.Load(), m.GenerationErrors.Load())
	}

	// The daemon survived: the same request now succeeds.
	if rec := get(t, h, "/v1/report/t6?seed=4"); rec.Code != http.StatusOK {
		t.Fatalf("post-panic request = %d, want 200 (server must survive)", rec.Code)
	}
}

// TestChaosPanickingRunFunc panics with a non-string value (an error): the
// recovered value still reaches the JSON 500, and the failed generation is
// not cached, so the retry is a miss that runs the RunFunc again.
func TestChaosPanickingRunFunc(t *testing.T) {
	var calls atomic.Int64
	run := func(ctx context.Context, id string, opts experiments.Options) (*experiments.Report, error) {
		if calls.Add(1) == 1 {
			panic(errors.New("corrupt generator state"))
		}
		return &experiments.Report{ID: id, Title: "ok"}, nil
	}
	s, h := newTestServer(t, Config{Run: run})
	rec := get(t, h, "/v1/report/f2?seed=1")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicked RunFunc = %d, want 500", rec.Code)
	}
	msg := decodeJSONError(t, rec.Body.Bytes(), http.StatusInternalServerError)
	if !strings.Contains(msg, "corrupt generator state") {
		t.Errorf("error message %q does not carry the panic value", msg)
	}
	if s.Metrics().Panics.Load() != 1 {
		t.Errorf("panics = %d, want 1", s.Metrics().Panics.Load())
	}
	rec = get(t, h, "/v1/report/f2?seed=1")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Memoird-Cache") != "miss" {
		t.Fatalf("post-panic request = %d/%q, want 200/miss", rec.Code, rec.Header().Get("X-Memoird-Cache"))
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("RunFunc calls = %d, want 2", n)
	}
}

// TestChaosExperimentsPanicErrorCounted: a RunFunc that reports a panic the
// experiments layer already contained (experiments.ErrPanic) is counted in
// the same panic metric.
func TestChaosExperimentsPanicErrorCounted(t *testing.T) {
	run := func(ctx context.Context, id string, opts experiments.Options) (*experiments.Report, error) {
		return nil, fmt.Errorf("%w: boom", experiments.ErrPanic)
	}
	s, h := newTestServer(t, Config{Run: run})
	if rec := get(t, h, "/v1/report/f1"); rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if s.Metrics().Panics.Load() != 1 {
		t.Errorf("panics = %d, want 1", s.Metrics().Panics.Load())
	}
}

// TestChaosForcedEviction evicts through real LRU pressure: in a cache with
// one entry per shard, two reports whose keys share a shard are requested
// in turn, so each request finds the other's entry in the slot, misses and
// regenerates.
func TestChaosForcedEviction(t *testing.T) {
	f := &fakeRun{}
	s, h := newTestServer(t, Config{Run: f.run, CacheEntries: numShards})
	seeds := [2]int64{6, sameShardSeed(s.cache, "f1", 6)}

	const requests = 4
	for i := 0; i < requests; i++ {
		rec := get(t, h, fmt.Sprintf("/v1/report/f1?seed=%d", seeds[i%2]))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d = %d, want 200", i, rec.Code)
		}
		if src := rec.Header().Get("X-Memoird-Cache"); src != "miss" {
			t.Errorf("request %d source = %q, want miss (entry evicted)", i, src)
		}
	}
	m := s.Metrics()
	if f.invocations.Load() != requests || m.Generations.Load() != requests || m.CacheHits.Load() != 0 {
		t.Errorf("runs/generations/hits = %d/%d/%d, want %d/%d/0",
			f.invocations.Load(), m.Generations.Load(), m.CacheHits.Load(), requests, requests)
	}
	if s.cache.Len() != 1 {
		t.Errorf("cache len = %d, want 1 (the two keys share one slot)", s.cache.Len())
	}
}

// TestChaosDrainUnderStall initiates graceful shutdown while a stalled
// request is in flight: Shutdown must wait out the stall and the request
// must complete successfully.
func TestChaosDrainUnderStall(t *testing.T) {
	var stalled atomic.Bool
	f := &fakeRun{}
	stall := stallThen(150*time.Millisecond, f.run)
	_, h := newTestServer(t, Config{
		Run: func(ctx context.Context, id string, opts experiments.Options) (*experiments.Report, error) {
			stalled.Store(true)
			return stall(ctx, id, opts)
		},
		Timeout: 10 * time.Second,
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: h}
	go httpSrv.Serve(ln)

	type result struct {
		status int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/v1/report/f1")
		if err != nil {
			resc <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resc <- result{status: resp.StatusCode}
	}()

	for !stalled.Load() {
		time.Sleep(time.Millisecond)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	res := <-resc
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("drained stalled request = %d/%v, want 200", res.status, res.err)
	}
}

// TestErrorShapeOnClientErrors pins the JSON error shape on the 4xx paths
// (the chaos 5xx paths are covered above).
func TestErrorShapeOnClientErrors(t *testing.T) {
	f := &fakeRun{}
	_, h := newTestServer(t, Config{Run: f.run})
	rec := get(t, h, "/v1/report/zz")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id = %d", rec.Code)
	}
	decodeJSONError(t, rec.Body.Bytes(), http.StatusNotFound)
	rec = get(t, h, "/v1/report/f1?seed=banana")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad seed = %d", rec.Code)
	}
	decodeJSONError(t, rec.Body.Bytes(), http.StatusBadRequest)
}
