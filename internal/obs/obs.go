// Package obs is the verification pipeline's observability substrate: a
// zero-dependency tracing and metrics collector threaded through
// core.Verify, the fleet driver, the switch-level simulator and the RTL
// simulator.
//
// The paper's CBV methodology works by "filtering circuits that do not
// have a problem" at chip scale — which only holds up if the tools
// themselves are measurable. ChiBench (PAPERS.md) makes the same point
// for EDA tooling generally: performance claims need reproducible,
// machine-readable evidence. This package is that evidence layer:
//
//   - Spans form a tree of named, monotonically-timed intervals (one per
//     pipeline stage, one per fleet cell) rendered as an indented trace
//     or flattened into a run manifest.
//   - Counters and gauges record named totals (cache hits, worklist
//     iterations, cycles simulated) and levels (worker utilization).
//
// Everything is goroutine-safe, and — the property the hot paths rely
// on — nil-safe: a nil *Collector and a nil *Span accept every call as
// a no-op without allocating, so instrumented code needs no "is
// telemetry on?" branches and pays nothing when it is off (the
// BenchmarkNoop* benchmarks pin this at zero allocations).
//
// # Determinism contract
//
// The *structure* reported is identical across runs and worker counts
// for a deterministic workload. Stable fields:
//
//   - span paths and their order (siblings render in creation order, so
//     concurrent span producers — fleet workers — pre-create their spans
//     in a deterministic order and Restart them at pickup);
//   - counter names and values (cache hits/misses are fixed by
//     singleflight admission, never by scheduling);
//   - the event stream's (type, item, stage, id, detail) sequence:
//     per-item events buffer in EventScopes and flush in scope-creation
//     (input) order at any worker count, run-level events are emitted
//     serially by the driver;
//   - finding IDs and evidence (derived from circuit structure);
//   - histogram names and bucket boundaries (HistBoundsMS is fixed).
//
// Volatile fields — everything derived from the wall clock: span
// durations, gauges, event timestamps (t_ms), histogram counts/sums,
// and per-item elapsed times. Two runs over the same corpus and
// configuration produce byte-identical manifests and event streams
// after masking the volatile fields, which is exactly what the
// masking-based determinism tests assert.
//
// A warm run replaying results from a persistent cache directory (fcv
// verify -cache-dir) widens the volatile set: per-item stage spans,
// stage histograms and the pipeline's internal counters (core.*,
// recognize.*, timing.*) describe work the warm run never performed,
// so they are present cold and absent warm, and the cached flags and
// fleet.diskcache.* counters flip between the two. The stable half —
// item names, fingerprints, verdicts, finding IDs and evidence,
// verdict tallies — is identical cold and warm; `fcv diff` gates on
// exactly that half, which is why a cold manifest diffs clean against
// its warm replay.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Collector gathers one run's spans, counters and gauges. The zero
// value is not usable; construct with New. A nil *Collector is the
// valid, allocation-free "telemetry off" state.
//
// Locking is split so the hot paths don't contend: the span tree has
// its own mutex, and metrics live behind an RWMutex that guards only
// the name→cell maps — each cell is an atomic the caller updates after
// a read-locked lookup, so concurrent fleet workers bumping counters
// never serialize on one lock (and never wait behind span operations).
type Collector struct {
	base time.Time // monotonic reference for all span offsets

	mu    sync.Mutex // guards the span tree (roots and all Span fields)
	roots []*Span

	metricMu sync.RWMutex // guards the maps below, not the cell values
	counters map[string]*atomic.Int64
	gauges   map[string]*atomic.Uint64 // float64 bits
	hists    map[string]*histState
}

// histState is a histogram's mutable storage with its own lock, so two
// workers observing different histograms never contend.
type histState struct {
	mu     sync.Mutex
	counts []int64
	sum    float64
	count  int64
}

// New returns an empty collector whose span clock starts now.
func New() *Collector {
	return &Collector{
		base:     time.Now(),
		counters: make(map[string]*atomic.Int64),
		gauges:   make(map[string]*atomic.Uint64),
	}
}

// Span is one named interval in the trace tree. A nil *Span no-ops
// every method, so spans can be threaded through options structs
// unconditionally.
type Span struct {
	c        *Collector
	parent   *Span
	name     string
	start    time.Duration // offset from the collector's base
	dur      time.Duration // set by End
	ended    bool
	children []*Span
}

// Start opens a root-level span. Returns nil on a nil collector.
func (c *Collector) Start(name string) *Span {
	if c == nil {
		return nil
	}
	s := &Span{c: c, name: name, start: time.Since(c.base)}
	c.mu.Lock()
	c.roots = append(c.roots, s)
	c.mu.Unlock()
	return s
}

// Child opens a sub-span. Returns nil on a nil span. Siblings keep
// creation order in the rendered tree, so concurrent producers that
// need a deterministic trace must create children from one goroutine
// (or pre-create them in a fixed order and Restart at work start).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{c: s.c, parent: s, name: name, start: time.Since(s.c.base)}
	s.c.mu.Lock()
	s.children = append(s.children, child)
	s.c.mu.Unlock()
	return child
}

// Restart re-bases the span's start to now and returns the time spent
// between creation and this call — the queue-wait of a span created at
// enqueue and restarted at pickup. No-op (returning 0) on nil.
func (s *Span) Restart() time.Duration {
	if s == nil {
		return 0
	}
	s.c.mu.Lock()
	now := time.Since(s.c.base)
	wait := now - s.start
	s.start = now
	s.c.mu.Unlock()
	return wait
}

// End closes the span, fixing its duration. Ending twice keeps the
// first duration; ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.c.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.c.base) - s.start
		s.ended = true
	}
	s.c.mu.Unlock()
}

// Duration returns the span's length: End's fix if ended, else the
// live elapsed time. Zero on nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.c.base) - s.start
}

// Collector returns the span's owning collector (nil on nil), so
// instrumented code handed only a span can still bump counters.
func (s *Span) Collector() *Collector {
	if s == nil {
		return nil
	}
	return s.c
}

// counterCell returns the named counter's atomic cell, creating it on
// first use. Steady state is a read-locked map lookup.
func (c *Collector) counterCell(name string) *atomic.Int64 {
	c.metricMu.RLock()
	cell := c.counters[name]
	c.metricMu.RUnlock()
	if cell != nil {
		return cell
	}
	c.metricMu.Lock()
	cell = c.counters[name]
	if cell == nil {
		cell = new(atomic.Int64)
		c.counters[name] = cell
	}
	c.metricMu.Unlock()
	return cell
}

// gaugeCell returns the named gauge's atomic cell (float64 bits),
// creating it on first use.
func (c *Collector) gaugeCell(name string) *atomic.Uint64 {
	c.metricMu.RLock()
	cell := c.gauges[name]
	c.metricMu.RUnlock()
	if cell != nil {
		return cell
	}
	c.metricMu.Lock()
	cell = c.gauges[name]
	if cell == nil {
		cell = new(atomic.Uint64)
		c.gauges[name] = cell
	}
	c.metricMu.Unlock()
	return cell
}

// Add increments a named counter. No-op on nil.
func (c *Collector) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.counterCell(name).Add(delta)
}

// SetGauge records a named level, overwriting any previous value.
func (c *Collector) SetGauge(name string, v float64) {
	if c == nil {
		return
	}
	c.gaugeCell(name).Store(math.Float64bits(v))
}

// AddGauge accumulates into a named gauge. Gauges are the manifest's
// volatile half — durations, rates, scheduling-dependent tallies — so
// quantities that vary run to run belong here, never in a counter (the
// counter set is contractually deterministic for a given workload).
func (c *Collector) AddGauge(name string, delta float64) {
	if c == nil {
		return
	}
	cell := c.gaugeCell(name)
	for {
		old := cell.Load()
		if cell.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Gauge returns the named gauge's value (0 if absent or nil c).
func (c *Collector) Gauge(name string) float64 {
	if c == nil {
		return 0
	}
	c.metricMu.RLock()
	cell := c.gauges[name]
	c.metricMu.RUnlock()
	if cell == nil {
		return 0
	}
	return math.Float64frombits(cell.Load())
}

// Counter returns the named counter's value (0 if absent or nil c).
func (c *Collector) Counter(name string) int64 {
	if c == nil {
		return 0
	}
	c.metricMu.RLock()
	cell := c.counters[name]
	c.metricMu.RUnlock()
	if cell == nil {
		return 0
	}
	return cell.Load()
}

// Counters returns a copy of all counters (nil map on nil c).
func (c *Collector) Counters() map[string]int64 {
	if c == nil {
		return nil
	}
	c.metricMu.RLock()
	defer c.metricMu.RUnlock()
	out := make(map[string]int64, len(c.counters))
	for k, v := range c.counters {
		out[k] = v.Load()
	}
	return out
}

// Gauges returns a copy of all gauges (nil map on nil c).
func (c *Collector) Gauges() map[string]float64 {
	if c == nil {
		return nil
	}
	c.metricMu.RLock()
	defer c.metricMu.RUnlock()
	out := make(map[string]float64, len(c.gauges))
	for k, v := range c.gauges {
		out[k] = math.Float64frombits(v.Load())
	}
	return out
}

// SpanInfo is one flattened span: its slash-joined path from the root,
// its depth, and its duration in milliseconds. The Path/Depth sequence
// is the deterministic half; DurMS is the volatile half.
type SpanInfo struct {
	// Path joins the ancestor names with '/': "fleet/adder16/checks".
	Path string `json:"path"`
	// Depth is 0 for roots.
	Depth int `json:"depth"`
	// DurMS is the span length in milliseconds (live value if unended).
	DurMS float64 `json:"dur_ms"`
}

// Spans flattens the trace tree in preorder, siblings in creation
// order. Nil collector yields nil.
func (c *Collector) Spans() []SpanInfo {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Since(c.base)
	var out []SpanInfo
	var walk func(s *Span, prefix string, depth int)
	walk = func(s *Span, prefix string, depth int) {
		path := s.name
		if prefix != "" {
			path = prefix + "/" + s.name
		}
		d := s.dur
		if !s.ended {
			d = now - s.start
		}
		out = append(out, SpanInfo{Path: path, Depth: depth, DurMS: ms(d)})
		for _, ch := range s.children {
			walk(ch, path, depth+1)
		}
	}
	for _, r := range c.roots {
		walk(r, "", 0)
	}
	return out
}

// Tree renders the span tree as indented text with durations — the
// `fcv verify -trace` output. Empty string on nil.
//
//	fleet                                 12.41ms
//	  decks/domino_and2.sp:and2            5.08ms  (queued 0.02ms)
//	    recognize                          1.10ms
//	    checks                             2.75ms
//	    timing                             1.18ms
func (c *Collector) Tree() string {
	if c == nil {
		return ""
	}
	infos := c.Spans()
	var sb strings.Builder
	for _, in := range infos {
		name := in.Path
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		indent := strings.Repeat("  ", in.Depth)
		fmt.Fprintf(&sb, "%-44s %10.2fms\n", indent+name, in.DurMS)
	}
	return sb.String()
}

// CountersText renders all counters and gauges sorted by name, one per
// line — the human tail of the -trace output.
func (c *Collector) CountersText() string {
	if c == nil {
		return ""
	}
	counters := c.Counters()
	gauges := c.Gauges()
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, k := range names {
		fmt.Fprintf(&sb, "  %-42s %d\n", k, counters[k])
	}
	gnames := make([]string, 0, len(gauges))
	for k := range gauges {
		gnames = append(gnames, k)
	}
	sort.Strings(gnames)
	for _, k := range gnames {
		fmt.Fprintf(&sb, "  %-42s %.3f\n", k, gauges[k])
	}
	return sb.String()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
