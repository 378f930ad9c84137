package experiments

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"privmem/internal/par"
)

func TestSafeRunContainsPanic(t *testing.T) {
	boom := func(Options) (*Report, error) { panic("kaboom") }
	rep, err := safeRun(boom, Options{})
	if rep != nil {
		t.Errorf("panicked runner returned a report: %+v", rep)
	}
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("err %q does not carry the panic value", err)
	}
}

func TestSafeRunPassesThrough(t *testing.T) {
	want := &Report{ID: "x"}
	rep, err := safeRun(func(Options) (*Report, error) { return want, nil }, Options{})
	if rep != want || err != nil {
		t.Fatalf("safeRun = %v, %v; want %v, nil", rep, err, want)
	}
}

// TestSafeRunContainsGoroutinePanic exercises the riskiest containment
// site: RunContext invokes safeRun inside its own generation goroutine,
// where an escaped panic would crash the whole process because no caller
// frame can recover it. The recover therefore must live inside that
// goroutine — this pins it by running safeRun the same way.
func TestSafeRunContainsGoroutinePanic(t *testing.T) {
	r := Runner(func(Options) (*Report, error) { panic(time.Duration(3)) })
	type result struct {
		rep *Report
		err error
	}
	ch := make(chan result, 1)
	go func() {
		rep, err := safeRun(r, Options{})
		ch <- result{rep, err}
	}()
	res := <-ch
	if !errors.Is(res.err, ErrPanic) || res.rep != nil {
		t.Fatalf("goroutine panic not contained: %v, %v", res.rep, res.err)
	}
}

// TestSafeRunContainsFanOutPanic: a panic on a par worker goroutine inside
// a generator is re-raised on the generator's goroutine, where safeRun's
// recover turns it into ErrPanic instead of crashing the process.
func TestSafeRunContainsFanOutPanic(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	r := Runner(func(Options) (*Report, error) {
		err := par.Do(func() error { return nil }, func() error { panic("worker kaboom") })
		return &Report{ID: "x"}, err
	})
	rep, err := safeRun(r, Options{})
	if !errors.Is(err, ErrPanic) || rep != nil {
		t.Fatalf("fan-out panic not contained: %v, %v", rep, err)
	}
	if !strings.Contains(err.Error(), "worker kaboom") {
		t.Errorf("err %q does not carry the panic value", err)
	}
}
