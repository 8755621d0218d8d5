// Package parallel provides the deterministic fan-out helper the
// experiment harness uses to spread independent simulations across CPU
// cores: indexed work whose callers write results to index-addressed
// slots, so parallel runs produce bit-identical output to sequential
// ones.
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
