// Package serve implements memoird, the long-running evaluation service in
// front of the experiments suite: it answers report requests from a sharded
// in-memory cache backed by an optional persistent store, coalesces
// concurrent identical requests into a single simulation, bounds concurrent
// generation with a worker pool, forwards requests it does not own to the
// owning peer of a consistent-hash ring, and exposes its own behaviour at
// /metrics (including p50/p95/p99 latency and SLO-breach counters).
//
// Determinism contract: a report is generated with the same per-experiment
// derived seed as experiments.RunAll (Options.ForExperiment), and the
// rendered bytes are stored and served verbatim. Identical requests
// therefore return byte-identical bodies whether they hit the cache, miss
// it, coalesce onto another request's generation, reload from the
// persistent store after a restart, or arrive via a peer forward — and
// those bodies match what cmd/figures prints for the same seed.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"privmem/internal/experiments"
)

// RunFunc generates one experiment report. The server calls it with the
// request-scoped context (carrying the per-request timeout) and the
// caller-facing options; seed derivation is the RunFunc's responsibility so
// tests can substitute deterministic fakes.
type RunFunc func(ctx context.Context, id string, opts experiments.Options) (*experiments.Report, error)

// ErrGeneratorPanic indicates a report generator panicked. The panic is
// contained by the server (the daemon keeps serving; the request gets a
// 500) and counted in Metrics.Panics.
var ErrGeneratorPanic = errors.New("serve: generator panicked")

// forwardHeader marks a request that already crossed one peer hop. A
// server receiving it serves locally no matter what its own ring says —
// the single-hop guard that keeps divergent ring views (mid-rollout config
// skew) from bouncing a request around the tier forever.
const forwardHeader = "X-Memoird-Forwarded"

// DefaultRun generates reports exactly as a RunAll suite would: with the
// per-experiment derived seed, so served reports match cmd/figures output
// for the same base seed.
func DefaultRun(ctx context.Context, id string, opts experiments.Options) (*experiments.Report, error) {
	return experiments.RunContext(ctx, id, opts.ForExperiment(id))
}

// Config parameterizes a Server. The zero value selects sensible defaults.
type Config struct {
	// Run generates reports; nil selects DefaultRun.
	Run RunFunc
	// MaxConcurrent bounds simultaneous report generations (the worker
	// pool). Values below 1 select runtime.NumCPU().
	MaxConcurrent int
	// Timeout is the per-report generation budget; expired requests get
	// 504. Values <= 0 select 60s. A suite request's budget scales with
	// the number of generation waves its ids need on the worker pool (see
	// handleSuite).
	Timeout time.Duration
	// CacheEntries bounds the report cache; values below 1 select 256.
	CacheEntries int
	// Store, when non-nil, persists every generated report and answers
	// cache misses without re-simulating. On construction the store is
	// warm-started into the cache, so a restarted daemon serves
	// byte-identical bodies for everything it ever generated.
	Store *Store
	// Ring, when non-nil, spreads cache-key ownership across the tier's
	// members; requests for keys owned by a healthy peer are forwarded
	// (one hop at most) instead of generated locally.
	Ring *Ring
	// SLO is the per-request latency objective; requests slower than it
	// count in Metrics.SLOBreaches. Values <= 0 select 1s.
	SLO time.Duration
}

// Server is the memoird HTTP service. Create with New, mount via Handler.
type Server struct {
	run     RunFunc
	cache   *Cache
	store   *Store
	ring    *Ring
	client  *http.Client
	flight  flightGroup
	sem     chan struct{}
	workers int
	timeout time.Duration
	slo     time.Duration
	metrics Metrics
	known   map[string]bool
}

// New returns a Server ready to serve requests. When cfg.Store is set, the
// store's contents are warm-started into the in-memory cache before the
// first request.
func New(cfg Config) *Server {
	if cfg.Run == nil {
		cfg.Run = DefaultRun
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = runtime.NumCPU()
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.CacheEntries < 1 {
		cfg.CacheEntries = 256
	}
	if cfg.SLO <= 0 {
		cfg.SLO = time.Second
	}
	s := &Server{
		run:     cfg.Run,
		cache:   NewCache(cfg.CacheEntries),
		store:   cfg.Store,
		ring:    cfg.Ring,
		client:  &http.Client{},
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		workers: cfg.MaxConcurrent,
		timeout: cfg.Timeout,
		slo:     cfg.SLO,
		known:   make(map[string]bool),
	}
	for _, id := range experiments.AllIDs() {
		s.known[id] = true
	}
	if s.store != nil {
		loaded, bad, err := s.store.Load(func(e *Entry) { s.cache.Put(e) })
		s.metrics.StoreLoads.Add(int64(loaded))
		s.metrics.StoreErrors.Add(int64(bad))
		if err != nil {
			s.metrics.StoreErrors.Add(1)
		}
	}
	return s
}

// Metrics exposes the server's counters, for tests and embedding daemons.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Handler returns the service's route table. Shutdown draining is the
// embedding http.Server's job: http.Server.Shutdown waits for in-flight
// handlers, which is exactly the in-flight work this service tracks.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument(s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument(s.handleMetrics))
	mux.HandleFunc("GET /v1/experiments", s.instrument(s.handleExperiments))
	mux.HandleFunc("GET /v1/report/{id}", s.instrument(s.handleReport))
	mux.HandleFunc("POST /v1/suite", s.instrument(s.handleSuite))
	mux.HandleFunc("GET /internal/v1/entry/{id}", s.instrument(s.handleEntry))
	// Fallback: unknown routes get the same JSON error shape as every other
	// error response, instead of the mux's plain-text 404.
	mux.HandleFunc("/", s.instrument(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.NotFound.Add(1)
		s.httpError(w, http.StatusNotFound, fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path))
	}))
	return mux
}

// instrument wraps a handler with the request counter, in-flight gauge,
// latency histogram, and SLO-breach counter.
func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.Requests.Add(1)
		s.metrics.InFlight.Add(1)
		defer func() {
			s.metrics.InFlight.Add(-1)
			elapsed := time.Since(start)
			s.metrics.Latency.Observe(elapsed.Microseconds())
			if elapsed > s.slo {
				s.metrics.SLOBreaches.Add(1)
			}
		}()
		h(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.write(w, []byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	err := s.metrics.WriteText(w)
	if err == nil {
		_, err = fmt.Fprintf(w, "memoird_cache_entries %d\n", s.cache.Len())
	}
	if err == nil && s.store != nil {
		_, err = fmt.Fprintf(w, "memoird_store_entries %d\n", s.store.Len())
	}
	if err == nil && s.ring != nil {
		err = s.ring.writePeerMetrics(w)
	}
	if err != nil {
		// The scraper hung up mid-scrape; the truncated body is already
		// unusable, so count the failure once and stop writing.
		s.metrics.WriteErrors.Add(1)
	}
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"experiments": experiments.IDs(),
		"ablations":   experiments.AblationIDs(),
		"armsrace":    experiments.ArmsRaceIDs(),
		"fleet":       experiments.FleetIDs(),
	})
}

// defaultOptions are the figures CLI defaults every route starts from:
// seed 42, explicit.
func defaultOptions() experiments.Options {
	return experiments.Options{Seed: 42, SeedSet: true}
}

// parseReportQuery reads the query string once: ?seed= and ?quick= into
// experiment Options, and ?format=json into asJSON. SeedSet is always true
// in the result, so ?seed=0 means the literal seed 0 — the same contract
// the suite route honors for an explicit "seed": 0 body field.
func parseReportQuery(r *http.Request) (opts experiments.Options, asJSON bool, err error) {
	opts = defaultOptions()
	q := r.URL.Query()
	if v := q.Get("seed"); v != "" {
		if opts.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			return opts, false, fmt.Errorf("bad seed %q", v)
		}
	}
	if v := q.Get("quick"); v != "" {
		if opts.Quick, err = strconv.ParseBool(v); err != nil {
			return opts, false, fmt.Errorf("bad quick %q", v)
		}
	}
	return opts, q.Get("format") == "json", nil
}

// resolve is the prologue of both report routes: an unknown id is a 404,
// bad options a 400, and otherwise the entry comes from getOrGenerate
// within the per-report budget. A nil entry means resolve has already
// written the error response.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, allowForward bool) (e *Entry, source string, asJSON bool) {
	id := r.PathValue("id")
	if !s.known[id] {
		s.metrics.NotFound.Add(1)
		s.httpError(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q", id))
		return nil, "", false
	}
	opts, asJSON, err := parseReportQuery(r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return nil, "", false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	e, source, err = s.getOrGenerate(ctx, id, opts, allowForward)
	if err != nil {
		s.writeError(w, err)
		return nil, "", false
	}
	return e, source, asJSON
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.metrics.ReportRequests.Add(1)
	if e, source, asJSON := s.resolve(w, r, forwardAllowed(r)); e != nil {
		s.writeEntry(w, e, source, asJSON)
	}
}

// handleEntry is the peer-forwarding endpoint: it answers with the full
// pre-rendered entry envelope (both encodings plus the cache key) so the
// forwarding node can serve either format byte-identically. It never
// forwards — it IS the single allowed hop.
func (s *Server) handleEntry(w http.ResponseWriter, r *http.Request) {
	if e, source, _ := s.resolve(w, r, false); e != nil {
		w.Header().Set("X-Memoird-Cache", source)
		s.writeJSON(w, http.StatusOK, entryEnvelope{Key: e.Key, Text: e.Text, JSON: e.JSON})
	}
}

// forwardAllowed reports whether this request may take its one peer hop:
// only if it has not already taken one (the single-hop guard header).
func forwardAllowed(r *http.Request) bool {
	return r.Header.Get(forwardHeader) == ""
}

// suiteRequest is the POST /v1/suite body. Ids defaults to the paper
// artifacts. Seed is a pointer so an explicit "seed": 0 is distinguishable
// from an absent field: absent means the default seed 42, present — any
// value, including 0 — is used literally, exactly like ?seed= on the
// report route.
type suiteRequest struct {
	IDs   []string `json:"ids"`
	Seed  *int64   `json:"seed"`
	Quick bool     `json:"quick"`
}

// maxSuiteBody bounds a POST /v1/suite body. A request naming every
// experiment once fits in a few hundred bytes.
const maxSuiteBody = 4 << 10

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	s.metrics.SuiteRequests.Add(1)
	var req suiteRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSuiteBody))
	dec.DisallowUnknownFields()
	// An empty body (io.EOF) selects the all-defaults suite.
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	// Each id starts a goroutine and lengthens the deadline, so a suite may
	// name at most as many ids as there are experiments.
	if len(req.IDs) > len(s.known) {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("%d ids, at most %d", len(req.IDs), len(s.known)))
		return
	}
	ids := req.IDs
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		if !s.known[id] {
			s.metrics.NotFound.Add(1)
			s.httpError(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q", id))
			return
		}
	}
	opts := defaultOptions()
	opts.Quick = req.Quick
	if req.Seed != nil {
		opts.Seed = *req.Seed
	}

	// Fan the suite out like RunAll: every id is its own cache/coalesce/
	// generate chain, with concurrency bounded by the shared worker pool.
	// Results land in ids order, so the response body is deterministic.
	//
	// The deadline is the per-report budget scaled by the number of
	// generation waves the fan-out needs on this worker pool: a cold
	// 20-report suite on 4 workers runs (at least) 5 sequential waves, and
	// giving that fan-out a single report's budget would 504 it even when
	// every individual generation fits comfortably.
	waves := (len(ids) + s.workers - 1) / s.workers
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(waves)*s.timeout)
	defer cancel()
	forward := forwardAllowed(r)
	entries := make([]*Entry, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _, err := s.getOrGenerate(ctx, id, opts, forward)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", id, err)
				return
			}
			entries[i] = e
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.writeError(w, err)
		return
	}
	// Entries hold canonical pre-rendered JSON; splice them verbatim so the
	// suite response is byte-identical run to run.
	w.Header().Set("Content-Type", "application/json")
	s.write(w, []byte(`{"reports":[`))
	for i, e := range entries {
		if i > 0 {
			s.write(w, []byte(","))
		}
		s.write(w, e.JSON)
	}
	s.write(w, []byte("]}\n"))
}

// getOrGenerate returns the entry for (id, opts) from the cache, the
// persistent store, the owning peer (when allowForward and a ring is
// configured), a coalesced in-flight generation, or by generating it on
// the worker pool. source describes how the entry was satisfied: "hit",
// "store", "forwarded", "miss", or "coalesced".
func (s *Server) getOrGenerate(ctx context.Context, id string, opts experiments.Options, allowForward bool) (*Entry, string, error) {
	key := opts.CacheKey(id)
	if e, ok := s.cache.Get(key); ok {
		s.metrics.CacheHits.Add(1)
		return e, "hit", nil
	}
	s.metrics.CacheMisses.Add(1)
	if e, ok := s.storeGet(key); ok {
		s.cache.Put(e)
		s.metrics.StoreHits.Add(1)
		return e, "store", nil
	}
	if allowForward && s.ring != nil {
		if owner := s.ring.Owner(key); owner != s.ring.Self() && s.ring.shouldForward(owner) {
			e, err := s.forward(ctx, owner, id, opts, key)
			s.ring.forwardResult(owner, err == nil)
			if err == nil {
				s.metrics.Forwards.Add(1)
				s.cache.Put(e)
				return e, "forwarded", nil
			}
			// A dead or disagreeing peer must not fail the request: fall
			// back to generating locally. Ownership is a performance
			// routing hint, not a correctness requirement — bodies are
			// deterministic wherever they are generated.
			s.metrics.ForwardErrors.Add(1)
			if ctx.Err() != nil {
				return nil, "forwarded", ctx.Err()
			}
		}
	}
	e, shared, err := s.flight.do(ctx, key, func() (*Entry, error) {
		// A just-finished leader may have filled the cache between our miss
		// and this flight; don't re-simulate.
		if e, ok := s.cache.Get(key); ok {
			return e, nil
		}
		if err := s.acquire(ctx); err != nil {
			return nil, err
		}
		defer s.release()
		s.metrics.Generations.Add(1)
		rep, err := s.generate(ctx, id, opts)
		if err != nil {
			s.metrics.GenerationErrors.Add(1)
			return nil, err
		}
		e, err := newEntry(key, rep)
		if err != nil {
			return nil, err
		}
		s.cache.Put(e)
		s.storePut(e)
		return e, nil
	})
	source := "miss"
	if shared {
		s.metrics.Coalesced.Add(1)
		source = "coalesced"
	}
	return e, source, err
}

// storeGet reads key from the persistent store, counting (but otherwise
// swallowing) read failures: a corrupt entry regenerates instead of
// failing the request.
func (s *Server) storeGet(key string) (*Entry, bool) {
	if s.store == nil {
		return nil, false
	}
	e, ok, err := s.store.Get(key)
	if err != nil {
		s.metrics.StoreErrors.Add(1)
		return nil, false
	}
	return e, ok
}

// storePut persists a freshly generated entry, counting (but otherwise
// swallowing) write failures: a full disk degrades the daemon to
// memory-only serving instead of failing requests.
func (s *Server) storePut(e *Entry) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(e); err != nil {
		s.metrics.StoreErrors.Add(1)
	}
}

// forward fetches the entry for (id, opts) from the owning peer's
// /internal/v1/entry endpoint, tagging the request with the single-hop
// guard header so the peer serves locally no matter what its ring says.
func (s *Server) forward(ctx context.Context, owner, id string, opts experiments.Options, key string) (*Entry, error) {
	url := fmt.Sprintf("%s/internal/v1/entry/%s?seed=%d&quick=%t", owner, id, opts.Seed, opts.Quick)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: forward %s: %w", url, err)
	}
	req.Header.Set(forwardHeader, s.ring.Self())
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: forward %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) //lint:allow errpath the status error below is the failure being reported; the body is best-effort context
		return nil, fmt.Errorf("serve: forward %s: %s: %s", url, resp.Status, body)
	}
	var env entryEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("serve: forward %s: decode: %w", url, err)
	}
	if env.Key != key {
		return nil, fmt.Errorf("serve: forward %s: peer served key %q, want %q", url, env.Key, key)
	}
	return &Entry{Key: env.Key, Text: env.Text, JSON: env.JSON}, nil
}

// generate calls the RunFunc with panic containment: a panicking generator
// (a bad experiment or a substituted RunFunc) becomes ErrGeneratorPanic
// instead of tearing down the daemon.
// Panics contained downstream by experiments.RunContext arrive as
// experiments.ErrPanic errors and are counted the same way.
func (s *Server) generate(ctx context.Context, id string, opts experiments.Options) (rep *experiments.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.Panics.Add(1)
			rep, err = nil, fmt.Errorf("%w: %v", ErrGeneratorPanic, r)
		}
	}()
	rep, err = s.run(ctx, id, opts)
	if err != nil && errors.Is(err, experiments.ErrPanic) {
		s.metrics.Panics.Add(1)
	}
	return rep, err
}

// acquire takes a worker-pool slot, abandoning the wait when ctx expires.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		s.metrics.GenInFlight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() {
	s.metrics.GenInFlight.Add(-1)
	<-s.sem
}

// writeEntry serves a cached entry in the requested format, tagging the
// response with how it was satisfied (hit, store, forwarded, miss,
// coalesced).
func (s *Server) writeEntry(w http.ResponseWriter, e *Entry, source string, asJSON bool) {
	w.Header().Set("X-Memoird-Cache", source)
	if asJSON {
		w.Header().Set("Content-Type", "application/json")
		s.write(w, e.JSON)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.write(w, e.Text)
}

// writeError maps generation failures onto HTTP statuses: expired budgets
// are 504, unknown experiments 404 (reachable via RunFunc substitutes),
// anything else — including contained generator panics — 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.metrics.Timeouts.Add(1)
		s.httpError(w, http.StatusGatewayTimeout, "report generation timed out")
	case errors.Is(err, experiments.ErrUnknown):
		s.metrics.NotFound.Add(1)
		s.httpError(w, http.StatusNotFound, err.Error())
	default:
		s.httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// httpError writes the service's canonical JSON error shape. Every error
// response — 400, 404, 500, 504 — carries {"error": ..., "status": ...} so
// programmatic clients never parse free-form text.
func (s *Server) httpError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, map[string]any{"error": msg, "status": status})
}

// newEntry renders a report once into both served encodings. JSON has no
// number for ±Inf or NaN, so a report holding one encodes that metric as
// the string the text form prints ("+Inf", "-Inf", "NaN"); a report whose
// metrics are all finite encodes exactly as json.Marshal(rep).
func newEntry(key string, rep *experiments.Report) (*Entry, error) {
	js, err := json.Marshal(rep)
	if errors.As(err, new(*json.UnsupportedValueError)) {
		js, err = json.Marshal(spellMetrics(rep))
	}
	if err != nil {
		return nil, fmt.Errorf("encode report %s: %w", rep.ID, err)
	}
	return &Entry{Key: key, Text: []byte(rep.Render()), JSON: js}, nil
}

// spellMetrics returns rep in experiments.Report's JSON shape with the
// metric values left open, so that a non-finite one can be a string.
func spellMetrics(rep *experiments.Report) any {
	m := make(map[string]any, len(rep.Metrics))
	for k, v := range rep.Metrics {
		m[k] = v
		if math.IsInf(v, 0) || math.IsNaN(v) {
			m[k] = fmt.Sprintf("%.4f", v) // Render's verb: "+Inf", "-Inf", "NaN"
		}
	}
	return struct {
		ID, Title string
		Headers   []string
		Rows      [][]string
		Metrics   map[string]any
		Notes     []string
	}{rep.ID, rep.Title, rep.Headers, rep.Rows, m, rep.Notes}
}

// write sends b on the response body. A failed write means the client went
// away mid-response; nothing can be re-sent, so the failure is counted in
// WriteErrors rather than dropped.
func (s *Server) write(w io.Writer, b []byte) {
	if _, err := w.Write(b); err != nil {
		s.metrics.WriteErrors.Add(1)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Marshal errors cannot happen for the map/string shapes passed
		// here, so an Encode failure is a mid-body disconnect.
		s.metrics.WriteErrors.Add(1)
	}
}
