// Package par runs independent pieces of work on the machine's cores and
// waits for all of them. It is the one fan-out primitive of the experiment
// world builders and attacks: each piece writes its result into a slot the
// caller indexed in advance, and the caller reduces the slots serially in a
// fixed order, so results are bit-identical at any GOMAXPROCS.
//
// Both functions wait for every piece before returning, report the first
// non-nil error in argument (or index) order rather than completion order,
// and re-raise a piece's panic on the caller's goroutine after the wait, so
// a recover in the caller (such as the experiment runner's) contains it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs the fns as For runs its indexes, concurrently on up to
// GOMAXPROCS goroutines, and waits for all of them. It returns the first
// non-nil error in argument order. If a fn panics, Do re-panics with
// the same value on the calling goroutine once all fns have returned.
func Do(fns ...func() error) error {
	return For(len(fns), func(i int) error { return fns[i]() })
}

// For calls fn(i) for every i in [0, n) on min(n, GOMAXPROCS) worker
// goroutines and waits for all calls; with one worker the calls run inline,
// in index order. Every index runs even when another one fails;
// the result is the error of the lowest failing index. If a call panics,
// For re-panics with the value of the lowest panicking index on the
// calling goroutine once all calls have returned.
func For(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	panics := make([]any, n)
	run := func(i int) {
		defer func() { panics[i] = recover() }()
		errs[i] = fn(i)
	}
	if workers := min(n, runtime.GOMAXPROCS(0)); workers == 1 {
		for i := range n {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
