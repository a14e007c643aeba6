package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// layerMetrics is the per-layer ledger a traced run reports, in print
// order. An _ms metric is a layer's self time per op: the duration of
// its spans minus the part their child spans cover. Layer spans are
// named by the metric without its _ms suffix.
var layerMetrics = []struct{ name, unit string }{
	{"netlist.write_ms", "ms"},
	{"netlist.parse_ms", "ms"},
	{"netlist.flatten_ms", "ms"},
	{"netlist.fingerprint_ms", "ms"},
	{"netlist.dag_hash_ms", "ms"},
	{"netlist.devices_per_op", "count"},
	{"recognize.analyze_ms", "ms"},
	{"checks.battery_ms", "ms"},
	{"timing.analyze_ms", "ms"},
	{"hier.scope_ms", "ms"},
	{"hier.interface_ms", "ms"},
	{"hier.boundary_ms", "ms"},
	{"fleet.self_ms", "ms"},
	{"fleet.worker_util_pct", "%"},
	{"fleet.cache_hit_pct", "%"},
	{"fleet.recomputed_per_op", "count"},
	{"obs.manifest_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.parse_cache_hit_pct", "%"},
	{"serve.rejected_pct", "%"},
	{"rtl.build_ms", "ms"},
	{"rtl.step_ms", "ms"},
	{"switchsim.build_ms", "ms"},
	{"switchsim.settle_ms", "ms"},
	{"shadow.compare_ms", "ms"},
	{"shadow.lane_compares_per_op", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_pct", "%"},
	{"unattributed_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// opSpan names the benchmark's own per-op root span; every other span
// carries its layer's name. A root op span's uncovered time is
// unattributed.
const opSpan = "op"

// span is one recorded interval. Times are milliseconds since the
// tracer's epoch. Src says where the interval came from: "" for a call
// the benchmark timed itself, "obs" for a stage span the program
// recorded through fleet.Options.Obs, "log" for the daemon's access log,
// and "replay" for a public sub-step re-run on the same input after the
// timed phase (its duration is the replay's; it starts at the start of
// its parent, the call it estimates a part of).
type span struct {
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Src    string  `json:"src,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: obs.Now()} }

// at converts a clock reading to the tracer's millisecond timeline.
func (t *tracer) at(x time.Time) float64 { return ms(x.Sub(t.epoch)) }

// add records a span of duration d starting at start and returns its
// ID (0 on a nil tracer, which is also the "no parent" ID).
func (t *tracer) add(op, parent int, name string, start time.Time, d time.Duration, src string) int {
	if t == nil {
		return 0
	}
	s := t.at(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: s, End: s + ms(d), Src: src})
	return id
}

// timed runs fn under a span and returns the span's ID.
func (t *tracer) timed(op, parent int, name string, fn func()) int {
	t0 := obs.Now()
	fn()
	return t.add(op, parent, name, t0, obs.Now().Sub(t0), "")
}

// addReplays attaches a replayed child of duration d(op) under every
// span named parent. The replay ran after the timed phase, so its
// interval is placed at the parent's start.
func (t *tracer) addReplays(parent, name string, d func(op int) time.Duration) {
	t.mu.Lock()
	var targets []span
	for _, s := range t.spans {
		if s.Name == parent {
			targets = append(targets, s)
		}
	}
	t.mu.Unlock()
	for _, s := range targets {
		t.add(s.Op, s.ID, name, t.epoch.Add(time.Duration(s.Start*1e6)), d(s.Op), "replay")
	}
}

// stageLayers maps core.Verify's stage spans onto ledger layers.
var stageLayers = map[string]string{
	"recognize": "recognize.analyze",
	"checks":    "checks.battery",
	"timing":    "timing.analyze",
}

// stageSpans indexes the stage spans fleet recorded through its Obs
// collector: item name -> stage spans in creation order.
func stageSpans(col *obs.Collector) map[string][]obs.SpanInfo {
	out := map[string][]obs.SpanInfo{}
	for _, s := range col.Spans() {
		parts := strings.Split(s.Path, "/")
		if s.Depth == 2 && parts[0] == "fleet" {
			out[parts[1]] = append(out[parts[1]], s)
		}
	}
	return out
}

// addStages copies an item's stage spans into the trace as children of
// parent, laid end to end from start (the collector keeps durations,
// not offsets).
func (t *tracer) addStages(stages []obs.SpanInfo, op, parent int, start time.Time) {
	if t == nil {
		return
	}
	for _, s := range stages {
		layer, ok := stageLayers[s.Path[strings.LastIndexByte(s.Path, '/')+1:]]
		if !ok {
			continue
		}
		d := time.Duration(s.DurMS * 1e6)
		t.add(op, parent, layer, start, d, "obs")
		start = start.Add(d)
	}
}

// ledger is a traced run's per-layer account.
type ledger struct {
	ops    int
	opMS   float64            // traced work per op: root spans' total / ops
	selfMS map[string]float64 // layer self time per op
	// extra holds the count and percentage metrics workloads supply.
	extra map[string]float64
}

// account folds the spans of the ops selected by keep (nil keeps all)
// into a ledger over ops ops. Each span's self time is its duration
// minus its children's; roots' durations sum to the traced work, and
// the self time of the benchmark's own roots is unattributed.
func (t *tracer) account(ops int, keep func(op int) bool) *ledger {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	l := &ledger{ops: ops, selfMS: map[string]float64{}, extra: map[string]float64{}}
	var total, unattributed float64
	for _, s := range t.spans {
		if keep != nil && !keep(s.Op) {
			continue
		}
		if s.Parent == 0 {
			total += s.End - s.Start
		}
		if s.Name == opSpan {
			unattributed += self[s.ID]
			continue
		}
		l.selfMS[s.Name] += self[s.ID]
	}
	n := float64(max(ops, 1))
	l.opMS = total / n
	for k := range l.selfMS {
		l.selfMS[k] /= n
	}
	if total > 0 {
		l.extra["unattributed_pct"] = 100 * unattributed / total
	}
	return l
}

// write stores the spans as JSON lines at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metric returns the ledger's value for a per-layer metric name.
func (l *ledger) metric(name, unit string) float64 {
	if unit == "ms" {
		return l.selfMS[name[:len(name)-len("_ms")]]
	}
	return l.extra[name]
}

// print renders the ledger: every metric the workload touched, _ms
// metrics with their share of the traced op time.
func (l *ledger) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "ledger %s: %d traced ops, %.4f ms traced work per op\n", workload, l.ops, l.opMS)
	fmt.Fprintf(w, "  %-30s %12s %8s\n", "layer metric", "value", "share")
	for _, m := range layerMetrics {
		v := l.metric(m.name, m.unit)
		_, touched := l.extra[m.name]
		if m.unit == "ms" {
			_, touched = l.selfMS[m.name[:len(m.name)-len("_ms")]]
		}
		if !touched {
			continue
		}
		share := ""
		if m.unit == "ms" && l.opMS > 0 {
			share = fmt.Sprintf("%7.2f%%", 100*v/l.opMS)
		}
		fmt.Fprintf(w, "  %-30s %12.4f %-5s %s\n", m.name, v, m.unit, share)
	}
}

// runtimeMeter reads allocation and GC CPU deltas over a phase.
type runtimeMeter struct {
	alloc   uint64
	samples []metrics.Sample
}

var gcCPUMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func startRuntimeMeter() *runtimeMeter {
	m := &runtimeMeter{samples: make([]metrics.Sample, len(gcCPUMetrics))}
	for i, name := range gcCPUMetrics {
		m.samples[i].Name = name
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc = ms.TotalAlloc
	metrics.Read(m.samples)
	return m
}

// stop returns MB allocated per op and the GC's share of CPU time (%)
// since the meter started.
func (m *runtimeMeter) stop(ops int) (allocMBPerOp, gcPct float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := make([]metrics.Sample, len(m.samples))
	copy(now, m.samples)
	metrics.Read(now)
	allocMBPerOp = float64(ms.TotalAlloc-m.alloc) / 1e6 / float64(max(ops, 1))
	gc := now[0].Value.Float64() - m.samples[0].Value.Float64()
	cpu := now[1].Value.Float64() - m.samples[1].Value.Float64()
	if cpu > 0 {
		gcPct = 100 * gc / cpu
	}
	return allocMBPerOp, gcPct
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
