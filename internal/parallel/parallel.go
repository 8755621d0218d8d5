// Package parallel provides the small deterministic fan-out helpers the
// experiment harness uses to spread independent simulations across CPU
// cores: indexed work with results written to index-addressed slots, so
// parallel runs produce bit-identical output to sequential ones.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs f(i) for every i in [0, n), on up to `workers` goroutines
// (NumCPU when workers <= 0). It returns when all calls complete. f must
// not panic; work items must be independent.
func ForEach(n, workers int, f func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachErr is ForEach for fallible work: it runs f(i) for every i in
// [0, n) and returns the errors in index-addressed slots (nil entries
// for successes), so callers can tell exactly which work items failed —
// and, for example, retry just those — rather than learning only that
// something failed. It returns nil when n <= 0.
func ForEachErr(n, workers int, f func(i int) error) []error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	ForEach(n, workers, func(i int) { errs[i] = f(i) })
	return errs
}

// First returns the lowest-index non-nil error in errs, or nil — the
// deterministic reduction of an index-addressed error slice.
func First(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
