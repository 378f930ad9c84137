package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privmem/internal/experiments"
)

// fakeRun is an injectable RunFunc that builds a small deterministic report
// from its inputs, counts invocations, and can block on a gate.
type fakeRun struct {
	invocations atomic.Int64
	started     chan struct{} // closed (once) when the first run begins
	release     chan struct{} // if non-nil, runs block here (or on ctx)
	startOnce   sync.Once
	err         error
}

func (f *fakeRun) run(ctx context.Context, id string, opts experiments.Options) (*experiments.Report, error) {
	f.invocations.Add(1)
	if f.started != nil {
		f.startOnce.Do(func() { close(f.started) })
	}
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	return &experiments.Report{
		ID:      id,
		Title:   "fake",
		Headers: []string{"k", "v"},
		Rows:    [][]string{{"seed", fmt.Sprint(opts.Seed)}, {"quick", fmt.Sprint(opts.Quick)}},
		Metrics: map[string]float64{"seed": float64(opts.Seed)},
	}, nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, http.Handler) {
	t.Helper()
	s := New(cfg)
	return s, s.Handler()
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	f := &fakeRun{}
	_, h := newTestServer(t, Config{Run: f.run})
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	for _, want := range []string{
		"memoird_requests_total", "memoird_cache_hits_total", "memoird_cache_misses_total",
		"memoird_coalesced_total", "memoird_inflight", "memoird_cache_entries",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics output missing %s:\n%s", want, rec.Body.String())
		}
	}
}

func TestExperimentsIndex(t *testing.T) {
	f := &fakeRun{}
	_, h := newTestServer(t, Config{Run: f.run})
	rec := get(t, h, "/v1/experiments")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body struct {
		Experiments []string `json:"experiments"`
		Ablations   []string `json:"ablations"`
		ArmsRace    []string `json:"armsrace"`
		Fleet       []string `json:"fleet"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Experiments) != len(experiments.IDs()) || len(body.Ablations) != len(experiments.AblationIDs()) ||
		len(body.ArmsRace) != len(experiments.ArmsRaceIDs()) || len(body.Fleet) != len(experiments.FleetIDs()) {
		t.Errorf("index sizes = %d/%d/%d/%d", len(body.Experiments), len(body.Ablations), len(body.ArmsRace), len(body.Fleet))
	}
}

func TestReportCacheHitMiss(t *testing.T) {
	f := &fakeRun{}
	s, h := newTestServer(t, Config{Run: f.run})

	first := get(t, h, "/v1/report/f1?seed=7")
	if first.Code != http.StatusOK {
		t.Fatalf("first = %d %s", first.Code, first.Body.String())
	}
	if src := first.Header().Get("X-Memoird-Cache"); src != "miss" {
		t.Errorf("first source = %q, want miss", src)
	}
	second := get(t, h, "/v1/report/f1?seed=7")
	if second.Code != http.StatusOK {
		t.Fatalf("second = %d", second.Code)
	}
	if src := second.Header().Get("X-Memoird-Cache"); src != "hit" {
		t.Errorf("second source = %q, want hit", src)
	}
	if first.Body.String() != second.Body.String() {
		t.Error("repeated identical request bodies differ")
	}
	if n := f.invocations.Load(); n != 1 {
		t.Errorf("simulations run = %d, want 1 (hit must not re-simulate)", n)
	}
	m := s.Metrics()
	if m.CacheHits.Load() != 1 || m.CacheMisses.Load() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", m.CacheHits.Load(), m.CacheMisses.Load())
	}

	// Distinct options are distinct cache entries.
	third := get(t, h, "/v1/report/f1?seed=8")
	if src := third.Header().Get("X-Memoird-Cache"); src != "miss" {
		t.Errorf("different-seed source = %q, want miss", src)
	}
	if third.Body.String() == first.Body.String() {
		t.Error("different seeds served the same body")
	}

	// JSON format is served from the same entry.
	js := get(t, h, "/v1/report/f1?seed=7&format=json")
	if ct := js.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type = %q", ct)
	}
	var rep experiments.Report
	if err := json.Unmarshal(js.Body.Bytes(), &rep); err != nil {
		t.Fatalf("json body: %v", err)
	}
	if rep.ID != "f1" {
		t.Errorf("json report id = %q", rep.ID)
	}
}

// TestReportCoalescing floods the server with identical requests while the
// single allowed generation is blocked; exactly one simulation may run.
func TestReportCoalescing(t *testing.T) {
	f := &fakeRun{started: make(chan struct{}), release: make(chan struct{})}
	s, h := newTestServer(t, Config{Run: f.run, MaxConcurrent: 4, Timeout: 10 * time.Second})

	const followers = 9
	bodies := make([]string, followers+1)
	var wg sync.WaitGroup
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := get(t, h, "/v1/report/t1?seed=3")
			if rec.Code != http.StatusOK {
				t.Errorf("request %d = %d", i, rec.Code)
			}
			bodies[i] = rec.Body.String()
		}()
	}
	<-f.started
	// Wait until every request has registered its miss, then let the one
	// leader finish.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().CacheMisses.Load() < followers+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(f.release)
	wg.Wait()

	if n := f.invocations.Load(); n != 1 {
		t.Errorf("simulations run = %d, want 1", n)
	}
	for i := 1; i < len(bodies); i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("body %d differs from body 0", i)
		}
	}
	if c := s.Metrics().Coalesced.Load(); c < 1 {
		t.Errorf("coalesced = %d, want >= 1", c)
	}
}

func TestReportTimeout(t *testing.T) {
	f := &fakeRun{release: make(chan struct{})} // never released: block until ctx
	s, h := newTestServer(t, Config{Run: f.run, Timeout: 30 * time.Millisecond})
	rec := get(t, h, "/v1/report/f1")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rec.Code)
	}
	if s.Metrics().Timeouts.Load() != 1 {
		t.Errorf("timeouts = %d, want 1", s.Metrics().Timeouts.Load())
	}
}

func TestReportErrors(t *testing.T) {
	f := &fakeRun{}
	_, h := newTestServer(t, Config{Run: f.run})
	if rec := get(t, h, "/v1/report/zz"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown id = %d, want 404", rec.Code)
	}
	if rec := get(t, h, "/v1/report/f1?seed=banana"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad seed = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/v1/report/f1?quick=maybe"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad quick = %d, want 400", rec.Code)
	}
	if n := f.invocations.Load(); n != 0 {
		t.Errorf("invalid requests ran %d simulations", n)
	}
	f.err = fmt.Errorf("boom")
	if rec := get(t, h, "/v1/report/f1"); rec.Code != http.StatusInternalServerError {
		t.Errorf("generator failure = %d, want 500", rec.Code)
	}
}

func TestSuite(t *testing.T) {
	f := &fakeRun{}
	_, h := newTestServer(t, Config{Run: f.run, MaxConcurrent: 2})
	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/suite", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	first := post(`{"ids":["f1","t1","t6"],"seed":5}`)
	if first.Code != http.StatusOK {
		t.Fatalf("suite = %d %s", first.Code, first.Body.String())
	}
	var body struct {
		Reports []experiments.Report `json:"reports"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Reports) != 3 || body.Reports[0].ID != "f1" || body.Reports[2].ID != "t6" {
		t.Fatalf("reports = %+v", body.Reports)
	}
	if n := f.invocations.Load(); n != 3 {
		t.Errorf("simulations = %d, want 3", n)
	}

	// The suite populated the per-report cache: re-requesting one of its
	// ids individually is a hit, and repeating the suite is all hits with a
	// byte-identical body.
	if rec := get(t, h, "/v1/report/t1?seed=5"); rec.Header().Get("X-Memoird-Cache") != "hit" {
		t.Errorf("post-suite report source = %q, want hit", rec.Header().Get("X-Memoird-Cache"))
	}
	again := post(`{"ids":["f1","t1","t6"],"seed":5}`)
	if again.Body.String() != first.Body.String() {
		t.Error("repeated suite body differs")
	}
	if n := f.invocations.Load(); n != 3 {
		t.Errorf("repeat suite re-simulated: %d runs", n)
	}

	if rec := post(`{"ids":["nope"]}`); rec.Code != http.StatusNotFound {
		t.Errorf("unknown suite id = %d, want 404", rec.Code)
	}
	if rec := post(`{bad json`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad body = %d, want 400", rec.Code)
	}
}

// TestSuiteBoundsRequest checks that POST /v1/suite refuses, with the JSON
// 400 shape and before any generation, a list of more ids than there are
// experiments (duplicates would otherwise start one goroutine each and
// scale the deadline) and a body over maxSuiteBody.
func TestSuiteBoundsRequest(t *testing.T) {
	f := &fakeRun{}
	_, h := newTestServer(t, Config{Run: f.run, MaxConcurrent: 2})
	ids := make([]string, len(experiments.AllIDs())+1)
	for i := range ids {
		ids[i] = "f1"
	}
	tooMany, err := json.Marshal(map[string]any{"ids": ids})
	if err != nil {
		t.Fatal(err)
	}
	tooLarge := `{"ids":["f1"]` + strings.Repeat(" ", maxSuiteBody) + `}`
	for _, c := range []struct{ name, body string }{
		{"too many ids", string(tooMany)},
		{"body over the cap", tooLarge},
	} {
		name, rec := c.name, post(t, h, "/v1/suite", c.body)
		var shape struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &shape); err != nil {
			t.Fatalf("%s: body %q: %v", name, rec.Body.String(), err)
		}
		if rec.Code != http.StatusBadRequest || shape.Status != http.StatusBadRequest || shape.Error == "" {
			t.Errorf("%s: %d %s, want the JSON 400 shape", name, rec.Code, rec.Body.String())
		}
	}
	if n := f.invocations.Load(); n != 0 {
		t.Errorf("refused suites ran %d simulations", n)
	}
}

// TestGracefulShutdownDrains starts a real http.Server, blocks a request
// mid-generation, initiates Shutdown, and verifies the in-flight request
// still completes successfully before Shutdown returns.
func TestGracefulShutdownDrains(t *testing.T) {
	f := &fakeRun{started: make(chan struct{}), release: make(chan struct{})}
	_, h := newTestServer(t, Config{Run: f.run, Timeout: 10 * time.Second})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: h}
	go httpSrv.Serve(ln)

	type result struct {
		status int
		body   string
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/v1/report/f1")
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: string(b)}
	}()

	<-f.started // the request is in-flight, generation blocked

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- httpSrv.Shutdown(ctx)
	}()

	// Shutdown must wait for the in-flight request, not kill it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(f.release)
	res := <-resc
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("drained request = %d/%v, want 200", res.status, res.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

// TestServedReportMatchesRunAll pins the determinism guarantee end to end:
// the daemon's default pipeline serves exactly the bytes cmd/figures prints
// for the same seed.
func TestServedReportMatchesRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	_, h := newTestServer(t, Config{}) // DefaultRun
	rec := get(t, h, "/v1/report/t6?quick=true&seed=9")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s", rec.Code, rec.Body.String())
	}
	opts := experiments.Options{Seed: 9, SeedSet: true, Quick: true}
	reports, err := experiments.RunAll(context.Background(), []string{"t6"}, opts,
		experiments.RunAllOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := reports[0].Render(); rec.Body.String() != want {
		t.Errorf("served report differs from RunAll output:\n--- served ---\n%s\n--- runall ---\n%s",
			rec.Body.String(), want)
	}
}

// TestServesNonFiniteMetric requests t12 at quick scale and seed 42 on the
// real DefaultRun pipeline, where no heatmap cell survives the k = 20
// suppression and revealed_km_k_20 is +Inf. Both formats must serve 200,
// and the JSON form spells the metric as the text form prints it.
func TestServesNonFiniteMetric(t *testing.T) {
	_, h := newTestServer(t, Config{}) // DefaultRun
	const path = "/v1/report/t12?seed=42&quick=true"
	text := get(t, h, path)
	if text.Code != http.StatusOK {
		t.Fatalf("text = %d %s", text.Code, text.Body.String())
	}
	if !strings.Contains(text.Body.String(), "revealed_km_k_20 = +Inf") {
		t.Fatalf("t12 quick at seed 42 no longer has a non-finite metric:\n%s", text.Body.String())
	}
	js := get(t, h, path+"&format=json")
	if js.Code != http.StatusOK {
		t.Fatalf("json = %d %s", js.Code, js.Body.String())
	}
	var rep struct{ Metrics map[string]any }
	if err := json.Unmarshal(js.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if got := rep.Metrics["revealed_km_k_20"]; got != "+Inf" {
		t.Errorf("json revealed_km_k_20 = %v, want \"+Inf\"", got)
	}
}

// TestSpellMetricsKeepsReportShape pins spellMetrics to Report's JSON
// shape: on a report with every field set and finite metrics, it encodes
// exactly as the report does, so a field added to Report fails here.
func TestSpellMetricsKeepsReportShape(t *testing.T) {
	rep := &experiments.Report{
		ID: "t0", Title: "shape", Headers: []string{"a", "b"}, Rows: [][]string{{"1", "2"}},
		Metrics: map[string]float64{"x": 1.5, "y": -2e-7, "z": 0}, Notes: []string{"n"},
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(spellMetrics(rep))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("spelled encoding differs:\n got %s\nwant %s", got, want)
	}
}

func TestCacheLRUBound(t *testing.T) {
	c := NewCache(numShards) // one entry per shard
	var a, b string
	// Find two keys that share a shard so the second insert evicts the
	// first.
	target := c.shardFor("k0")
	a = "k0"
	for i := 1; ; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardFor(k) == target {
			b = k
			break
		}
	}
	c.Put(&Entry{Key: a, Text: []byte("a")})
	c.Put(&Entry{Key: b, Text: []byte("b")})
	if _, ok := c.Get(a); ok {
		t.Error("LRU bound not enforced: oldest entry survived")
	}
	if e, ok := c.Get(b); !ok || string(e.Text) != "b" {
		t.Error("newest entry missing after eviction")
	}
	if got := c.Len(); got > numShards {
		t.Errorf("cache len = %d, exceeds bound %d", got, numShards)
	}
}

func TestCacheRefreshExistingKey(t *testing.T) {
	c := NewCache(64)
	c.Put(&Entry{Key: "k", Text: []byte("v1")})
	c.Put(&Entry{Key: "k", Text: []byte("v2")})
	if e, _ := c.Get("k"); string(e.Text) != "v2" {
		t.Errorf("refreshed entry = %q", e.Text)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d after refresh, want 1", c.Len())
	}
}
