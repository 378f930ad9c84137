package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// Each operation the benchmark times runs in a child process of the
// benchmark binary: a cold suite pass needs a fresh process (sunspot's
// process-wide caches survive experiments.SetWorldMemo), and a child per
// operation gives every operation its own heap, peak RSS and CPU account.
//
// Protocol: the parent runs `<binary> child <mode> <trace 0|1>` with the
// plan as JSON on standard input (a serving plan's request streams are too
// long for an argument). The child prints "ready" once its set-up is done,
// then one JSON childResult line, and exits 0.

// childResult is what a child reports about its timed section.
type childResult struct {
	Wall      float64            `json:"wall_s"`
	CPU       float64            `json:"cpu_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	P50       float64            `json:"p50_s"` // request latency quantiles (serve)
	P99       float64            `json:"p99_s"`
	Reports   []reportDigest     `json:"reports,omitempty"`
	Fleet     map[string]string  `json:"fleet,omitempty"` // fleet spec key -> digest of Render
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`

	// Filled in by the parent.
	Setup float64 `json:"-"`
	RSSMB float64 `json:"-"`
}

// reportDigest is the digest of one rendered report: a suite pass's
// report, or a warm-up body memoird served.
type reportDigest struct {
	ID     string `json:"id"`
	Seed   int64  `json:"seed"`
	Digest string `json:"digest"`
}

func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// cpuNow returns this process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memNow reads the allocation and GC counters.
func memNow() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// runtimeLayers records allocation and GC work between two snapshots.
func runtimeLayers(layers map[string]float64, a, b runtime.MemStats) {
	layers["runtime.alloc_mb"] = float64(b.TotalAlloc-a.TotalAlloc) / 1e6
	layers["runtime.gc_cycles"] = float64(b.NumGC - a.NumGC)
}

// runChild is the child process entry point.
func runChild(args []string, stdin io.Reader, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench child: want <mode> <trace>")
		return 2
	}
	mode, traced := args[0], args[1] == "1"
	raw, err := io.ReadAll(stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", mode, err)
		return 1
	}
	tr := newTracer(traced)
	ready := func() { fmt.Fprintln(stdout, "ready") }
	var res childResult
	switch mode {
	case "suite":
		var p suitePlan
		if err = json.Unmarshal(raw, &p); err == nil {
			res = childSuite(p, tr, ready)
		}
	case "fleet":
		var p fleetPlan
		if err = json.Unmarshal(raw, &p); err == nil {
			res = childFleet(p, tr, ready)
		}
	case "serve":
		var p servePlan
		if err = json.Unmarshal(raw, &p); err == nil {
			res, err = childServe(p, tr, ready)
		}
	case "probes":
		var seed int64
		if err = json.Unmarshal(raw, &seed); err == nil {
			res, err = childProbes(seed, tr, ready)
		}
	default:
		err = fmt.Errorf("unknown mode %q", mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", mode, err)
		return 1
	}
	res.Spans = tr.spans
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", mode, err)
		return 1
	}
	return 0
}

// spawn runs one child to completion and returns its result, with the
// parent-side set-up time (spawn to "ready") and the child's peak RSS.
// Child spans are adopted under parent in tr.
func spawn(exe, mode string, traced bool, p any, tr *tracer, parent int) (childResult, error) {
	var res childResult
	raw, err := json.Marshal(p)
	if err != nil {
		return res, err
	}
	flag := "0"
	if traced {
		flag = "1"
	}
	cmd := exec.Command(exe, "child", mode, flag)
	cmd.Stdin = bytes.NewReader(raw)
	cmd.Stderr = os.Stderr
	// A child must not outlive a benchmark that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return res, err
	}
	rd := bufio.NewReader(out)
	line, rerr := rd.ReadString('\n')
	setup := time.Since(t0)
	var body []byte
	if rerr == nil && line == "ready\n" {
		body, rerr = io.ReadAll(rd)
	} else if rerr == nil {
		rerr = fmt.Errorf("child %s: want ready, got %q", mode, line)
	}
	if rerr != nil {
		_ = cmd.Process.Kill() // the child is broken; Wait below reaps it
	}
	werr := cmd.Wait()
	if rerr != nil {
		return res, rerr
	}
	if werr != nil {
		return res, fmt.Errorf("child %s: %w", mode, werr)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return res, fmt.Errorf("child %s: bad result: %w", mode, err)
	}
	res.Setup = setup.Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	tr.adopt(res.Spans, parent, t0.Sub(tr.base))
	res.Spans = nil
	return res, nil
}
