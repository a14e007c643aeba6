package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ requested, n, want int }{
		{0, 1000, min(procs, 1000)},
		{-3, 1000, min(procs, 1000)},
		{0, 1, 1},
		{3, 5, 3},
		{8, 5, 5},
		{1, 5, 1},
		{4, 0, 1},
		{0, 0, 1},
		{2, -1, 1},
	} {
		if got := Workers(tc.requested, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.requested, tc.n, got, tc.want)
		}
	}
}

// TestDoRunsEachIndexOnce: every index in [0, n) runs exactly once, and
// no more calls overlap than there are workers.
func TestDoRunsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 100} {
			calls := make([]atomic.Int32, n)
			var active, peak atomic.Int32
			Do(n, workers, func(i int) {
				now := active.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				calls[i].Add(1)
				runtime.Gosched()
				active.Add(-1)
			})
			for i := range calls {
				if got := calls[i].Load(); got != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
			if p := int(peak.Load()); p > max(1, min(workers, n)) {
				t.Errorf("workers=%d n=%d: %d calls overlapped", workers, n, p)
			}
		}
	}
}

// TestDoInOrderChain is fleet.Verify's turn chain: job i waits until job
// i-1 has started and got past the same wait. It finishes at every worker
// count only because indices go out in increasing order; a pool that
// handed a worker a later index first could leave every worker waiting on
// a job no worker holds.
func TestDoInOrderChain(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 100
		turn := make([]chan struct{}, n)
		for i := range turn {
			turn[i] = make(chan struct{})
		}
		done := make(chan struct{})
		go func() {
			Do(n, workers, func(i int) {
				if i > 0 {
					<-turn[i-1]
				}
				close(turn[i])
				runtime.Gosched()
			})
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("workers=%d: the chain stalled", workers)
		}
	}
}

// TestDoAllocatesNothingPerJob: a run's allocations are its goroutines,
// not its jobs.
func TestDoAllocatesNothingPerJob(t *testing.T) {
	var sum atomic.Int64
	fn := func(i int) { sum.Add(int64(i)) }
	for _, workers := range []int{1, 4} {
		if avg := testing.AllocsPerRun(10, func() { Do(10000, workers, fn) }); avg > 50 {
			t.Errorf("%d workers: %.1f allocs per run of 10000 jobs", workers, avg)
		}
	}
}
