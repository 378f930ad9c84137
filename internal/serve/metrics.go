package serve

import (
	"fmt"
	"io"
	"sync/atomic"

	"privmem/internal/metrics"
)

// Metrics holds the service's observability counters and gauges. All fields
// are atomics, updated lock-free on the request path and read by /metrics.
type Metrics struct {
	// Requests counts HTTP requests across all routes.
	Requests atomic.Int64
	// ReportRequests counts GET /v1/report/{id} requests.
	ReportRequests atomic.Int64
	// SuiteRequests counts POST /v1/suite requests.
	SuiteRequests atomic.Int64
	// CacheHits counts report requests answered from the cache.
	CacheHits atomic.Int64
	// CacheMisses counts report requests that had to generate (or wait on a
	// coalesced generation).
	CacheMisses atomic.Int64
	// StoreHits counts cache misses answered from the persistent store
	// without re-simulating.
	StoreHits atomic.Int64
	// StoreLoads counts entries loaded from the persistent store at boot
	// (warm start).
	StoreLoads atomic.Int64
	// StoreErrors counts persistent-store read/write failures. Store
	// failures never fail a request — the entry is regenerated or served
	// from memory — so this counter is the only signal the disk tier is
	// degraded.
	StoreErrors atomic.Int64
	// Coalesced counts requests that attached to another request's
	// in-flight generation instead of starting their own.
	Coalesced atomic.Int64
	// Forwards counts requests forwarded to the owning peer of the tier's
	// consistent-hash ring.
	Forwards atomic.Int64
	// ForwardErrors counts forwards that failed (peer down, bad response);
	// each falls back to local generation.
	ForwardErrors atomic.Int64
	// Generations counts simulations actually run.
	Generations atomic.Int64
	// GenerationErrors counts simulations that returned an error.
	GenerationErrors atomic.Int64
	// Timeouts counts requests that exceeded their generation budget (504s).
	Timeouts atomic.Int64
	// Panics counts generator panics contained by the server (each also
	// counts as a GenerationError).
	Panics atomic.Int64
	// NotFound counts requests naming unknown experiment ids (404s).
	NotFound atomic.Int64
	// WriteErrors counts response-body writes that failed, almost always a
	// client that disconnected mid-response. The handler has nothing left
	// to tell that client; the counter is the signal that bodies are being
	// truncated.
	WriteErrors atomic.Int64
	// InFlight gauges requests currently being handled.
	InFlight atomic.Int64
	// GenInFlight gauges simulations currently running in the worker pool.
	GenInFlight atomic.Int64
	// SLOBreaches counts requests slower than the configured SLO threshold
	// (Config.SLO). SLOBreaches/Requests is the burn ratio; alerting on its
	// rate of change is the standard burn-rate signal.
	SLOBreaches atomic.Int64
	// Latency is the request-latency distribution in microseconds, across
	// all routes. Latency.Sum()/Requests is the mean; /metrics exports
	// p50/p95/p99 upper bounds from its log2 buckets.
	Latency metrics.Histogram
}

// WriteText renders every metric as one "name value" line in a fixed order,
// the expvar-style text form served at /metrics. It returns the first
// write error; the caller decides whether that counts as a WriteError (the
// scrape path does) or aborts outright.
func (m *Metrics) WriteText(w io.Writer) error {
	rows := []struct {
		name string
		v    *atomic.Int64
	}{
		{"memoird_requests_total", &m.Requests},
		{"memoird_report_requests_total", &m.ReportRequests},
		{"memoird_suite_requests_total", &m.SuiteRequests},
		{"memoird_cache_hits_total", &m.CacheHits},
		{"memoird_cache_misses_total", &m.CacheMisses},
		{"memoird_store_hits_total", &m.StoreHits},
		{"memoird_store_loads_total", &m.StoreLoads},
		{"memoird_store_errors_total", &m.StoreErrors},
		{"memoird_coalesced_total", &m.Coalesced},
		{"memoird_forwards_total", &m.Forwards},
		{"memoird_forward_errors_total", &m.ForwardErrors},
		{"memoird_generations_total", &m.Generations},
		{"memoird_generation_errors_total", &m.GenerationErrors},
		{"memoird_timeouts_total", &m.Timeouts},
		{"memoird_generator_panics_total", &m.Panics},
		{"memoird_not_found_total", &m.NotFound},
		{"memoird_write_errors_total", &m.WriteErrors},
		{"memoird_inflight", &m.InFlight},
		{"memoird_generations_inflight", &m.GenInFlight},
		{"memoird_slo_breaches_total", &m.SLOBreaches},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s %d\n", r.name, r.v.Load()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "memoird_request_latency_micros_total %d\n", m.Latency.Sum()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "memoird_request_latency_count %d\n", m.Latency.Count()); err != nil {
		return err
	}
	return m.Latency.WriteQuantiles(w, "memoird_request_latency_micros")
}
