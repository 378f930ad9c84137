package experiments

import "sync"

// World memoization. Profiling RunAll shows most experiment wall-clock goes
// into rebuilding deterministic "worlds" — home.Simulate traces, meter.Read
// streams, weather fields, solar fleets — that are pure functions of the
// effective (seed, quick) pair. Different experiments derive different seeds
// (Options.ForExperiment), so within one suite pass every build still
// happens; the memo pays off when the same experiment re-runs — repeated
// RunAll invocations, benchmark iterations, and report-cache misses in the
// serving daemon.
//
// Only base worlds are memoized: builders that simulate from a seed. Results
// derived from a base world (trained classifiers, shaped captures, attack
// scores) are plain functions that take that world as an argument, so each
// experiment fetches its base world once and recomputes them.
//
// Worlds are shared READ-ONLY: every consumer audited here either clones
// its input or writes only series it allocates itself (see DESIGN.md §7).
// A builder that grows a world with a mutating consumer must stop memoizing
// it (as the fitness worlds do: AddFacility mutates).
//
// The memo is singleflight: concurrent callers of one key share a single
// build, and waiters observe the builder's error. Failed builds are NOT
// cached — the entry is removed before waiters are released, so the next
// caller rebuilds.

// worldMemoCap bounds retained worlds. A full suite pass touches under 20
// distinct keys (t8, t9 and ar1 derive different seeds, so "shared"
// builders still produce one world per experiment id); the cap must exceed
// that working set or repeated passes thrash the FIFO.
const worldMemoCap = 64

type memoEntry struct {
	done chan struct{} // closed when the build finishes
	val  any
	err  error
}

type worldMemoState struct {
	mu      sync.Mutex
	enabled bool
	entries map[string]*memoEntry
	order   []string // completed keys, oldest first, for FIFO eviction
	builds  map[string]int
}

var worldMemo = &worldMemoState{
	enabled: true,
	entries: map[string]*memoEntry{},
	builds:  map[string]int{},
}

// worldBuildErrHook, when set, injects a build failure for matching keys.
// Tests use it to prove errors are returned to every in-flight waiter and
// never cached. Always nil outside tests.
var worldBuildErrHook func(key string) error

// SetWorldMemo enables or disables world memoization, flushing all cached
// worlds either way. The invariant suite toggles it to prove reports are
// bit-identical with the memo on or off; it is on by default.
func SetWorldMemo(enabled bool) {
	worldMemo.mu.Lock()
	defer worldMemo.mu.Unlock()
	worldMemo.enabled = enabled
	worldMemo.entries = map[string]*memoEntry{}
	worldMemo.order = nil
}

// resetWorldMemoCounters clears the per-key build counts (test helper).
func resetWorldMemoCounters() {
	worldMemo.mu.Lock()
	defer worldMemo.mu.Unlock()
	worldMemo.builds = map[string]int{}
}

// worldBuildCount reports how many times key's builder actually ran.
func worldBuildCount(key string) int {
	worldMemo.mu.Lock()
	defer worldMemo.mu.Unlock()
	return worldMemo.builds[key]
}

// memoWorld returns the world cached under key, building it at most once
// per cache generation. Callers key a world by opts.CacheKey(builder): the
// builder name plus the effective seed and scale, so everything a builder
// reads from Options must be captured there. Concurrent callers singleflight: one builds, the
// rest wait on the same entry. Build errors propagate to every waiter but
// leave no entry behind.
//
//lint:trust memoWorld mutex-guarded singleflight memo keyed on (builder, seed, quick); invariant.RunAllMemoTransparent proves reports are bit-identical with the memo on or off
func memoWorld[T any](key string, build func() (T, error)) (T, error) {
	m := worldMemo
	m.mu.Lock()
	if !m.enabled {
		m.builds[key]++
		m.mu.Unlock()
		return runWorldBuild(key, build)
	}
	if e, ok := m.entries[key]; ok {
		m.mu.Unlock()
		<-e.done
		if e.err != nil {
			var zero T
			return zero, e.err
		}
		return e.val.(T), nil
	}
	e := &memoEntry{done: make(chan struct{})}
	m.entries[key] = e
	m.builds[key]++
	m.mu.Unlock()

	v, err := runWorldBuild(key, build)

	m.mu.Lock()
	if err != nil {
		// Never cache failures: drop the entry (if this generation still
		// owns it) so the next caller retries the build.
		if m.entries[key] == e {
			delete(m.entries, key)
		}
		e.err = err
	} else {
		e.val = v
		if m.entries[key] == e {
			m.order = append(m.order, key)
			if len(m.order) > worldMemoCap {
				oldest := m.order[0]
				m.order = m.order[1:]
				delete(m.entries, oldest)
			}
		}
	}
	m.mu.Unlock()
	close(e.done)
	return v, err
}

func runWorldBuild[T any](key string, build func() (T, error)) (T, error) {
	if hook := worldBuildErrHook; hook != nil {
		if err := hook(key); err != nil {
			var zero T
			return zero, err
		}
	}
	return build()
}
