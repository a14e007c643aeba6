package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilCollectorIsNoop pins the package's core contract: every
// method on a nil collector and a nil span is a safe no-op, so
// instrumented code needs no telemetry branches.
func TestNilCollectorIsNoop(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Error("nil collector claims Enabled")
	}
	sp := c.Start("x")
	if sp != nil {
		t.Fatalf("nil collector Start returned %v", sp)
	}
	ch := sp.Child("y")
	if ch != nil {
		t.Fatalf("nil span Child returned %v", ch)
	}
	sp.End()
	if w := sp.Restart(); w != 0 {
		t.Errorf("nil span Restart = %v", w)
	}
	if d := sp.Duration(); d != 0 {
		t.Errorf("nil span Duration = %v", d)
	}
	if n := sp.Name(); n != "" {
		t.Errorf("nil span Name = %q", n)
	}
	if sp.Collector() != nil {
		t.Error("nil span has a collector")
	}
	c.Add("n", 1)
	c.AddGauge("g", 1)
	c.SetGauge("g", 1)
	if c.Counter("n") != 0 || c.Gauge("g") != 0 {
		t.Error("nil collector holds values")
	}
	if c.Counters() != nil || c.Gauges() != nil || c.Spans() != nil {
		t.Error("nil collector returns non-nil aggregates")
	}
	if c.Tree() != "" || c.CountersText() != "" {
		t.Error("nil collector renders text")
	}
}

// TestNoopZeroAllocs is the hot-path guarantee: disabled telemetry
// allocates nothing. (BenchmarkNoopCollector measures the time side.)
func TestNoopZeroAllocs(t *testing.T) {
	var c *Collector
	allocs := testing.AllocsPerRun(100, func() {
		sp := c.Start("fleet")
		ch := sp.Child("stage")
		c.Add("counter", 1)
		c.AddGauge("gauge", 0.5)
		ch.End()
		sp.Restart()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil-collector path allocates %.1f per op, want 0", allocs)
	}
}

// TestSpanTreeStructure checks paths, depths and creation-order
// rendering of a nested trace.
func TestSpanTreeStructure(t *testing.T) {
	c := New()
	root := c.Start("fleet")
	a := root.Child("cellA")
	a.Child("recognize").End()
	a.Child("checks").End()
	a.End()
	b := root.Child("cellB")
	b.Child("recognize").End()
	b.End()
	root.End()

	want := []string{
		"fleet",
		"fleet/cellA",
		"fleet/cellA/recognize",
		"fleet/cellA/checks",
		"fleet/cellB",
		"fleet/cellB/recognize",
	}
	infos := c.Spans()
	if len(infos) != len(want) {
		t.Fatalf("got %d spans, want %d", len(infos), len(want))
	}
	for i, in := range infos {
		if in.Path != want[i] {
			t.Errorf("span %d path = %q, want %q", i, in.Path, want[i])
		}
		if wantDepth := strings.Count(want[i], "/"); in.Depth != wantDepth {
			t.Errorf("span %q depth = %d, want %d", in.Path, in.Depth, wantDepth)
		}
	}
	tree := c.Tree()
	if !strings.Contains(tree, "fleet") || !strings.Contains(tree, "    recognize") {
		t.Errorf("tree rendering missing names/indent:\n%s", tree)
	}
}

// TestSpanDurations checks that End fixes a monotonic duration and
// that Restart re-bases the clock (the queue-wait idiom). Sleeps give
// lower bounds and the enclosing interval an upper bound, so no
// assertion depends on how loaded the host is.
func TestSpanDurations(t *testing.T) {
	c := New()
	outer := time.Now()
	sp := c.Start("work")
	time.Sleep(2 * time.Millisecond)
	wait := sp.Restart()
	if wait < 2*time.Millisecond {
		t.Errorf("Restart returned %v queue wait, want ≥2ms", wait)
	}
	time.Sleep(time.Millisecond)
	sp.End()
	elapsed := time.Since(outer)
	d := sp.Duration()
	if d < time.Millisecond {
		t.Errorf("duration %v, want ≥1ms", d)
	}
	// Restart re-based the span, so wait and d are disjoint parts of
	// the enclosing interval.
	if d+wait > elapsed {
		t.Errorf("Restart did not re-base: dur %v + wait %v exceeds the %v enclosing interval", d, wait, elapsed)
	}
	// Double End keeps the first fix.
	first := sp.Duration()
	time.Sleep(time.Millisecond)
	sp.End()
	if sp.Duration() != first {
		t.Error("second End moved the duration")
	}
}

// TestCountersConcurrent hammers counters and gauges from many
// goroutines; under -race this is also the data-race check.
func TestCountersConcurrent(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add("n", 1)
				c.AddGauge("g", 0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Counter("n"); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := c.Gauge("g"); got != workers*perWorker*0.5 {
		t.Errorf("gauge = %g, want %g", got, workers*perWorker*0.5)
	}
}

// TestConcurrentSpansUnderRace creates sibling spans from concurrent
// goroutines — order is scheduling-dependent (the fleet pre-creates to
// avoid that), but the structure must stay a consistent tree and the
// walk must not race.
func TestConcurrentSpansUnderRace(t *testing.T) {
	c := New()
	root := c.Start("root")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := root.Child("worker")
			sp.Child("stage").End()
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	infos := c.Spans()
	if len(infos) != 1+8*2 {
		t.Fatalf("got %d spans, want %d", len(infos), 1+8*2)
	}
}

// BenchmarkNoopCollector pins the cost of disabled telemetry on the
// hot path: all nil-receiver calls, zero allocations.
func BenchmarkNoopCollector(b *testing.B) {
	var c *Collector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := c.Start("fleet")
		ch := sp.Child("stage")
		c.Add("counter", 1)
		ch.End()
		sp.End()
	}
}

// BenchmarkLiveCollector is the enabled-side reference cost.
func BenchmarkLiveCollector(b *testing.B) {
	c := New()
	root := c.Start("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add("counter", 1)
	}
	root.End()
}
