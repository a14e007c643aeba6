// Package par is the one fan-out every parallel loop in fcv runs on: a
// bounded set of worker goroutines over index-addressed jobs. Callers
// write job i's result into slot i of a slice they own and merge in
// index order, so what they report does not depend on scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count for n jobs: requested ≤ 0
// means GOMAXPROCS, and the result is clamped to [1, n] (1 when n < 1).
func Workers(requested, n int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return max(1, min(requested, n))
}

// Do runs fn(i) for every i in [0, n) on workers goroutines (clamped to
// [1, n]) and returns once every call has returned.
//
// Indices are handed out in increasing order to whichever worker is
// free, so while fn(i) runs, every fn(j) with j < i has been started by
// a worker that is not waiting for a job. A job may therefore block
// until an earlier job reaches some point without deadlocking the pool;
// fleet.Verify's in-order cache lookups rely on that. Handing out an
// index costs one atomic add and no allocation.
func Do(n, workers int, fn func(i int)) {
	workers = max(1, min(workers, n))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
