package serve

// Regression tests for the four serving-layer bugs fixed alongside the
// tier work. Each test fails against the pre-fix code:
//
//   - seed-0 route divergence: POST /v1/suite {"seed":0} used to silently
//     serve seed 42 while GET /v1/report/{id}?seed=0 served seed 0;
//   - leaked flight on panic: a panic in the flight function outside the
//     generate recover region left the singleflight call registered
//     forever, wedging every later request for that key;
//   - suite budget: the whole suite fan-out shared one report's budget, so
//     a cold suite on a small pool 504ed even when each id fit;
//   - cache bound overshoot: the per-shard split rounded up, so
//     NewCache(17) could hold 32 entries.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"privmem/internal/experiments"
)

// TestSuiteSeedZeroMatchesReportRoute proves the two routes agree at seed
// 0: a suite generated with an explicit "seed": 0 must populate exactly the
// cache entries GET ?seed=0 reads, and the bodies must match.
func TestSuiteSeedZeroMatchesReportRoute(t *testing.T) {
	f := &fakeRun{}
	_, h := newTestServer(t, Config{Run: f.run})

	suite := post(t, h, "/v1/suite", `{"ids":["f1"],"seed":0}`)
	if suite.Code != http.StatusOK {
		t.Fatalf("suite = %d %s", suite.Code, suite.Body.String())
	}
	var body struct {
		Reports []experiments.Report `json:"reports"`
	}
	if err := json.Unmarshal(suite.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if n := len(body.Reports); n != 1 {
		t.Fatalf("suite reports = %d, want 1", n)
	}

	// The report route at seed 0 must be a cache hit on the suite's entry —
	// pre-fix the suite silently ran seed 42, so this was a miss that
	// re-simulated under a different seed.
	rec := get(t, h, "/v1/report/f1?seed=0&format=json")
	if rec.Code != http.StatusOK {
		t.Fatalf("report seed=0 = %d", rec.Code)
	}
	if src := rec.Header().Get("X-Memoird-Cache"); src != "hit" {
		t.Errorf("report seed=0 after suite seed 0 = %q, want hit", src)
	}
	if n := f.invocations.Load(); n != 1 {
		t.Errorf("simulations = %d, want 1 (routes must share the seed-0 entry)", n)
	}
	suiteReport, err := json.Marshal(body.Reports[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(rec.Body.String()), string(suiteReport); got != want {
		t.Errorf("seed-0 bodies differ between routes:\nreport: %s\nsuite:  %s", got, want)
	}

	// The fake run records the seed it was handed; seed 0 must survive to
	// the generator rather than being remapped to 42.
	if seed := body.Reports[0].Metrics["seed"]; seed != 0 {
		t.Errorf("suite seed 0 ran with seed %v, want 0", seed)
	}

	// An absent seed field still selects the default 42, shared with the
	// report route's default.
	def := post(t, h, "/v1/suite", `{"ids":["f1"]}`)
	if def.Code != http.StatusOK {
		t.Fatalf("default suite = %d", def.Code)
	}
	if rec := get(t, h, "/v1/report/f1"); rec.Header().Get("X-Memoird-Cache") != "hit" {
		t.Errorf("default-seed report after default suite = %q, want hit", rec.Header().Get("X-Memoird-Cache"))
	}
}

// TestFlightGroupPanicUnblocksFollowers pins the follower-facing half of
// the leak fix at the flightGroup level: followers waiting on a leader that
// panics receive ErrGeneratorPanic promptly instead of hanging.
func TestFlightGroupPanicUnblocksFollowers(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() { _ = recover() }()
		g.do(context.Background(), "k", func() (*Entry, error) {
			close(started)
			<-release
			panic("leader dies")
		})
	}()
	<-started

	followerErr := make(chan error, 1)
	go func() {
		_, _, err := g.do(context.Background(), "k", func() (*Entry, error) {
			t.Error("follower ran fn despite live flight")
			return nil, nil
		})
		followerErr <- err
	}()
	// Give the follower time to attach, then kill the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-leaderDone

	select {
	case err := <-followerErr:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("follower error = %v, want generator-panic error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower still blocked after leader panic (flight leaked)")
	}

	// The key must be free again: a fresh call runs its own fn.
	ran := false
	if _, _, err := g.do(context.Background(), "k", func() (*Entry, error) {
		ran = true
		return &Entry{Key: "k"}, nil
	}); err != nil || !ran {
		t.Errorf("fresh flight after panic: ran=%t err=%v", ran, err)
	}
}

// TestSuiteBudgetScalesWithWaves runs a cold 4-id suite on a 1-worker pool
// where each generation takes ~half the per-report budget: the fan-out
// needs 4 sequential waves, so under the pre-fix shared single budget it
// 504ed even though every individual generation fit comfortably.
func TestSuiteBudgetScalesWithWaves(t *testing.T) {
	slow := func(ctx context.Context, id string, opts experiments.Options) (*experiments.Report, error) {
		select {
		case <-time.After(60 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &experiments.Report{ID: id, Title: "slow", Metrics: map[string]float64{"seed": float64(opts.Seed)}}, nil
	}
	s, h := newTestServer(t, Config{Run: slow, MaxConcurrent: 1, Timeout: 150 * time.Millisecond})

	rec := post(t, h, "/v1/suite", `{"ids":["f1","f2","t1","t6"],"seed":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold suite on small pool = %d %s, want 200 (budget must scale with waves)",
			rec.Code, rec.Body.String())
	}
	if n := s.Metrics().Generations.Load(); n != 4 {
		t.Errorf("generations = %d, want 4", n)
	}

	// The per-report budget is unchanged: a single report that overruns it
	// still 504s.
	stuck := func(ctx context.Context, id string, opts experiments.Options) (*experiments.Report, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, h2 := newTestServer(t, Config{Run: stuck, Timeout: 40 * time.Millisecond})
	if rec := get(t, h2, "/v1/report/f1"); rec.Code != http.StatusGatewayTimeout {
		t.Errorf("overrunning single report = %d, want 504", rec.Code)
	}
}

// TestCacheExactBound fills caches far past their configured bounds and
// asserts Len never exceeds them — the pre-fix rounded-up shard split let
// NewCache(17) hold up to 32 entries.
func TestCacheExactBound(t *testing.T) {
	for _, bound := range []int{numShards, 17, 33, 100, 256} {
		c := NewCache(bound)
		for i := 0; i < bound*4+7; i++ {
			c.Put(&Entry{Key: fmt.Sprintf("key-%d", i), Text: []byte("x")})
		}
		if got := c.Len(); got > bound {
			t.Errorf("NewCache(%d) holds %d entries after overfill, exceeds bound", bound, got)
		}
		// The split must not starve the cache either: a full sweep should
		// leave it exactly at its bound.
		if got := c.Len(); got < bound-numShards {
			t.Errorf("NewCache(%d) holds only %d entries after overfill", bound, got)
		}
	}
}

// post drives a POST request through the handler, mirroring the get helper.
func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}
