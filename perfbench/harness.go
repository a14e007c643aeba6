package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// config is one benchmark run's parameters. Every generated input is a
// function of seed; timing decides only how many ops fit in budget.
type config struct {
	seed   int64
	budget time.Duration
	traced bool
	// nproc bounds workers, clients and runners (the host's CPU count).
	nproc int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// tiny shrinks every input for the package's own tests.
	tiny bool
}

// sample is one op's outcome: its latency and whether its output check
// passed. A failed op counts as beyond every latency percentile.
type sample struct {
	ms float64
	ok bool
}

// count is one deterministic work count, read at the checkpoint.
type count struct {
	name  string
	value int64
}

// result is everything one workload run measured.
type result struct {
	setupS  []float64
	samples []sample // timed ops in op order (the untraced phase when traced)
	traced  []sample // a traced run's traced phase
	wall    time.Duration
	// heapMB is the live heap after two forced GCs at the checkpoint,
	// with the workload's long-lived state reachable.
	heapMB float64
	heapAt int
	work   []count // deterministic work counts at the checkpoint
	// digest hashes the generated inputs: equal seeds give equal digests.
	digest   string
	mu       sync.Mutex // guards problems
	problems []string
	// Traced runs only.
	ledger *ledger
	tracer *tracer
}

// attempted counts every op of the run, traced phase included.
func (r *result) attempted() int { return len(r.samples) + len(r.traced) }

// failed is the number of ops whose output check did not pass.
func (r *result) failed() int {
	n := 0
	for _, s := range append(append([]sample(nil), r.samples...), r.traced...) {
		if !s.ok {
			n++
		}
	}
	return n
}

// countFailed appends the failed-op count of the checkpoint ops to the
// work counts; call it once the timed phase's output checks are done.
func (r *result) countFailed() {
	n := 0
	for _, s := range r.samples[:min(r.heapAt, len(r.samples))] {
		if !s.ok {
			n++
		}
	}
	r.work = append(r.work, count{"failed_ops", int64(n)})
}

// problem records an output-check failure description (the first few
// are kept; the failed-op count carries the rest).
func (r *result) problem(msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 10 {
		r.problems = append(r.problems, msg)
	}
}

// opsPerS is completed (passing) ops per wall second of the timed phase.
func opsPerS(samples []sample, wall time.Duration) float64 {
	ok := 0
	for _, s := range samples {
		if s.ok {
			ok++
		}
	}
	return float64(ok) / wall.Seconds()
}

// quantile returns the nearest-rank q-quantile of the latencies, failed
// ops counting as +Inf, and how many samples lie beyond it.
func quantile(samples []sample, q float64) (v float64, beyond int) {
	if len(samples) == 0 {
		return 0, 0
	}
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.ms
		if !s.ok {
			xs[i] = math.Inf(1)
		}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank], len(xs) - 1 - rank
}

// median of a non-empty float slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of a float slice (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// medianDuration times fn n times and returns the median.
func medianDuration(n int, fn func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := obs.Now()
		fn()
		ds[i] = float64(obs.Now().Sub(t0))
	}
	return time.Duration(median(ds))
}

// overheadPct is how much slower the traced phase ran than the
// untraced one, from their ops_per_s.
func overheadPct(untraced, traced float64) float64 {
	if traced <= 0 {
		return 0
	}
	return 100 * (untraced/traced - 1)
}

// ms converts a duration to milliseconds with sub-microsecond digits.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// liveHeapMB forces two GCs and reads the live heap while keep — the
// workload's long-lived state — is still reachable.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return float64(m.HeapAlloc) / 1e6
}

// repeatSetup runs set-up n times, keeps the last state and returns
// every repetition's wall time in seconds. Earlier states are handed to
// discard (when non-nil) and become garbage before the timed phase.
func repeatSetup[T any](n int, setup func() (T, error), discard func(T)) (T, []float64, error) {
	var st T
	var times []float64
	for i := 0; i < max(n, 1); i++ {
		var zero T
		if i > 0 && discard != nil {
			discard(st)
		}
		st = zero
		runtime.GC()
		t0 := obs.Now()
		s, err := setup()
		if err != nil {
			return zero, nil, err
		}
		times = append(times, obs.Now().Sub(t0).Seconds())
		st = s
	}
	return st, times, nil
}

// opRNG is op i's private stream on one named input stream of the run:
// a pure function of (seed, stream, i), so the input an op sees does
// not depend on which worker ran it or on how many ops came before.
func opRNG(seed int64, stream string, i int) *obs.RNG {
	h := sha256.New()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	h.Write([]byte(stream))
	return obs.NewRNG(int64(binary.LittleEndian.Uint64(h.Sum(nil))))
}

// digest renders a hash of the generated inputs as the run's input
// digest: equal seeds give equal digests.
func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

// sortedInts returns a map's int keys in order.
func sortedInts[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// loop is one timed closed-loop phase: workers each take the next op
// index as soon as their previous op completes. Ops first..checkpoint-1
// all run, then the untimed atCheckpoint hook reads heap and counts;
// the phase then continues until its time budget is spent. The budget
// is a floor when the checkpoint takes longer than it.
type loop struct {
	workers      int
	first        int
	checkpoint   int
	budget       time.Duration
	atCheckpoint func()
	op           func(i int) []sample
}

// phase is what a loop produced.
type phase struct {
	samples []sample // in op-index order
	next    int      // index of the first op not run
	wall    time.Duration
}

func (l loop) run() phase {
	type rec struct {
		i int
		s []sample
	}
	recs := make([][]rec, l.workers)
	var next atomic.Int64
	next.Store(int64(l.first))
	// spin runs ops until a worker draws an index stop rejects. Indices
	// are drawn in time order, so the ops run form a contiguous range.
	spin := func(stop func(i int) bool) time.Duration {
		t0 := obs.Now()
		var wg sync.WaitGroup
		for w := 0; w < l.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if stop(i) {
						return
					}
					recs[w] = append(recs[w], rec{i, l.op(i)})
				}
			}(w)
		}
		wg.Wait()
		return obs.Now().Sub(t0)
	}
	var wall time.Duration
	if l.checkpoint > l.first {
		wall += spin(func(i int) bool { return i >= l.checkpoint })
		next.Store(int64(l.checkpoint))
		if l.atCheckpoint != nil {
			l.atCheckpoint()
		}
	}
	if rest := l.budget - wall; rest > 0 {
		deadline := obs.Now().Add(rest)
		wall += spin(func(int) bool { return !obs.Now().Before(deadline) })
	}
	var all []rec
	for _, rs := range recs {
		all = append(all, rs...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	p := phase{wall: wall, next: l.first}
	for _, r := range all {
		p.samples = append(p.samples, r.s...)
		p.next = r.i + 1
	}
	return p
}
