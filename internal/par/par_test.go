package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs f at the given GOMAXPROCS, so both the serial and the
// goroutine path are exercised whatever the host's core count.
func withProcs(t *testing.T, procs int, f func(t *testing.T)) {
	t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		f(t)
	})
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func(t *testing.T) {
			for _, n := range []int{0, 1, 3, 100} {
				hits := make([]atomic.Int32, n)
				if err := For(n, func(i int) error { hits[i].Add(1); return nil }); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Errorf("n=%d: index %d ran %d times", n, i, got)
					}
				}
			}
		})
	}
}

func TestFirstErrorInArgumentOrder(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func(t *testing.T) {
			// The later argument fails first in time: index 2 returns at
			// once while index 1 waits for it, so completion order is the
			// reverse of argument order.
			released := make(chan struct{})
			var ran atomic.Int32
			err := Do(
				func() error { ran.Add(1); return nil },
				func() error {
					ran.Add(1)
					if runtime.GOMAXPROCS(0) > 1 {
						<-released
					}
					return errA
				},
				func() error {
					ran.Add(1)
					if runtime.GOMAXPROCS(0) > 1 {
						close(released)
					}
					return errB
				},
				func() error { ran.Add(1); return nil },
			)
			if !errors.Is(err, errA) {
				t.Errorf("err = %v, want the first failing argument's %v", err, errA)
			}
			if got := ran.Load(); got != 4 {
				t.Errorf("%d of 4 functions ran; all must run even when one fails", got)
			}
		})
	}
}

func TestForLowestFailingIndex(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func(t *testing.T) {
			var ran atomic.Int32
			err := For(50, func(i int) error {
				ran.Add(1)
				if i%7 == 3 {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "index 3" {
				t.Errorf("err = %v, want index 3", err)
			}
			if got := ran.Load(); got != 50 {
				t.Errorf("%d of 50 indexes ran", got)
			}
		})
	}
}

func TestPanicReraisedOnCaller(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func(t *testing.T) {
			var ran atomic.Int32
			got := func() (p any) {
				defer func() { p = recover() }()
				_ = For(8, func(i int) error {
					ran.Add(1)
					if i == 5 || i == 6 {
						panic(fmt.Sprintf("boom %d", i))
					}
					return errors.New("ignored once a panic is raised")
				})
				return nil
			}()
			if got != "boom 5" {
				t.Errorf("recovered %v, want the lowest panicking index's value %q", got, "boom 5")
			}
			if n := ran.Load(); n != 8 {
				t.Errorf("%d of 8 indexes ran before the re-raise", n)
			}
		})
	}
}

// TestConcurrentSlots is the race check: every worker writes its own slot
// and the caller reads all of them after the wait. Run with -race.
func TestConcurrentSlots(t *testing.T) {
	withProcs(t, 4, func(t *testing.T) {
		const n = 1000
		out := make([]int, n)
		var sum int
		err := Do(
			func() error { return For(n, func(i int) error { out[i] = i * i; return nil }) },
			func() error {
				for i := range 100 {
					sum += i
				}
				return nil
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("out[%d] = %d", i, v)
			}
		}
		if sum != 4950 {
			t.Errorf("sum = %d", sum)
		}
	})
}
