// Fixture for the floatorder analyzer: float accumulation into outer
// variables inside go statements, function literals passed to fan-out
// helpers, or channel ranges is flagged (even when mutex-guarded — the race
// is fixed, the order is not); goroutine-local accumulators, indexed
// per-worker slots with sequential reduction, and integer counters are
// clean.
package floatorder

import "sync"

func flaggedGoAccum(vals []float64) float64 {
	var sum float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, v := range vals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			sum += v // want `floating-point accumulation into sum in goroutine-scheduling order`
			mu.Unlock()
		}()
	}
	wg.Wait()
	return sum
}

func flaggedChannelAccum(parts chan float64) float64 {
	var total float64
	for p := range parts {
		total += p // want `floating-point accumulation into total in channel-arrival order`
	}
	return total
}

func cleanLocalAccum(vals []float64, out chan<- float64) {
	go func() {
		var local float64
		for _, v := range vals {
			local += v
		}
		out <- local
	}()
}

func cleanIndexedSlots(vals []float64, workers int) float64 {
	partial := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(vals); i += workers {
				partial[w] += vals[i]
			}
		}(w)
	}
	wg.Wait()
	var sum float64
	for _, p := range partial {
		sum += p
	}
	return sum
}

func cleanIntCounter(events chan int) int {
	count := 0
	for range events {
		count++
	}
	return count
}

// Do and For stand in for internal/par's fan-out helpers: their function
// arguments run on worker goroutines.
func Do(fns ...func() error) error { return nil }

func For(n int, fn func(i int) error) error { return nil }

func flaggedFanOutAccum(vals []float64) float64 {
	var sum float64
	_ = For(len(vals), func(i int) error {
		sum += vals[i] // want `floating-point accumulation into sum in goroutine-scheduling order \(floatorder.For argument\)`
		return nil
	})
	var total float64
	_ = Do(func() error {
		total -= vals[0] // want `floating-point accumulation into total in goroutine-scheduling order \(floatorder.Do argument\)`
		return nil
	}, func() error { return nil })
	return sum + total
}

func cleanFanOutSlots(vals []float64) float64 {
	out := make([]float64, len(vals))
	_ = For(len(vals), func(i int) error {
		var local float64
		local += vals[i]
		out[i] = local
		return nil
	})
	var sum float64
	for _, v := range out {
		sum += v
	}
	return sum
}
