package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The acceptance bar for the serving layer: a cache hit must be at least an
// order of magnitude cheaper than the miss path, which runs a real (quick)
// simulation. Compare:
//
//	go test ./internal/serve -bench 'BenchmarkReportCache' -run '^$'
func benchGet(tb testing.TB, h http.Handler, path string) {
	tb.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET %s = %d %s", path, rec.Code, rec.Body.String())
	}
}

// hitPath is the report the cache-hit measurements request.
const hitPath = "/v1/report/t6?quick=true&seed=1"

// warmHandler returns the Handler of a server on the real DefaultRun
// pipeline with hitPath already cached.
func warmHandler(tb testing.TB) http.Handler {
	h := New(Config{}).Handler()
	benchGet(tb, h, hitPath) // prime the cache
	return h
}

func BenchmarkReportCacheHit(b *testing.B) {
	h := warmHandler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, h, hitPath)
	}
}

func BenchmarkReportCacheMiss(b *testing.B) {
	s := New(Config{})
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh seed per iteration guarantees a cache miss and a full
		// quick-scale simulation.
		benchGet(b, h, fmt.Sprintf("/v1/report/t6?quick=true&seed=%d", 1000+i))
	}
}
