package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{},                           // neither -addr nor -selfserve
		{"-addr", "x", "-selfserve"}, // both
		{"-addr", "x", "-rps", "0"},
		{"-addr", "x", "-zipf-s", "1"},
		{"-addr", "x", "-seeds", "0"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2\nstderr: %s", args, code, errOut.String())
		}
	}
}

// TestRunAgainstFakeDaemon drives a full load run against an instant fake
// memoird and checks the one-line report.
func TestRunAgainstFakeDaemon(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !strings.HasPrefix(r.URL.Path, "/v1/report/") {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte("report body\n")) //lint:allow errpath test fake
	}))
	defer ts.Close()

	var out, errOut bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-rps", "400", "-duration", "250ms",
		"-experiments", "f1,t6", "-seeds", "3", "-warm",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("run = %d\nstderr: %s", code, errOut.String())
	}
	line := strings.TrimSpace(out.String())
	if !strings.HasPrefix(line, "BenchmarkMemoirLoad") {
		t.Fatalf("output is not a benchmark line: %q", line)
	}
	for _, col := range []string{"ns/op", "p50-us", "p95-us", "p99-us", "rps", "errors"} {
		if !strings.Contains(line, col) {
			t.Errorf("output missing %s column: %q", col, line)
		}
	}
	// 400 rps * 250ms = 100 scheduled requests, plus 6 warm probes.
	if got := hits.Load(); got < 100 {
		t.Errorf("fake daemon saw %d requests, want >= 100", got)
	}
	if !strings.Contains(line, "\t0 errors") {
		t.Errorf("errors column non-zero against healthy fake: %q", line)
	}
}

// TestRunCountsErrors points the generator at a daemon that always 500s:
// the run completes (open loop never wedges) and exits 1 with every request
// counted as an error.
func TestRunCountsErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	var out, errOut bytes.Buffer
	code := run([]string{"-addr", ts.URL, "-rps", "200", "-duration", "100ms"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("all-errors run = %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(errOut.String(), "failed") {
		t.Errorf("stderr missing failure notice: %s", errOut.String())
	}
}
