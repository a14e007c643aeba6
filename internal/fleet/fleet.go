// Package fleet is the full-corpus verification driver: it pushes many
// designs through the CBV pipeline (core.Verify) in parallel and merges
// the per-design outcomes into one deterministic report.
//
// The paper's methodology is chip-scale — §2's CBV flow verifies every
// structure of a microprocessor, not one cell at a time — so the
// reproduction needs a driver that treats "all cells of the design" as
// the unit of work. Two properties carry the weight:
//
//   - Determinism: the merged report is byte-identical regardless of
//     worker count or scheduling, the same contract the lint driver
//     established. Results are collected per-item and rendered in input
//     order; wall-clock numbers are reported separately from the stable
//     text.
//
//   - Memoization: verification outcomes are cached under the circuit's
//     structural fingerprint (netlist.Fingerprint — invariant under node
//     renaming and device order) plus a configuration key, so repeated
//     cells, re-runs, and rename-only edits hit the cache instead of
//     re-verifying.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checks"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Item is one unit of fleet work: a named flat circuit.
type Item struct {
	// Name labels the item in the merged report (usually the cell or
	// deck name; distinct from the circuit's own name so two decks
	// defining the same cell stay distinguishable).
	Name string
	// Circuit is the flat design to verify.
	Circuit *netlist.Circuit
	// Lazy, when Circuit is nil, supplies the circuit on demand. The
	// fleet memoizes it, so it runs at most once, and with Key set only
	// when the result cannot be replayed from a cache — the
	// hierarchical driver uses it to defer subcell scope construction
	// to actual misses. Without Key it still runs exactly once, but up
	// front (the circuit must be fingerprinted), losing the laziness.
	Lazy func() (*netlist.Circuit, error)
	// Key, when non-zero, overrides the cache-key fingerprint. The
	// hierarchical driver keys each subcell scope on the cell's DAG
	// fingerprint — which moves when any descendant changes — instead
	// of the scope circuit's own hash, which would not.
	Key netlist.Fingerprint
}

// Options configures a fleet run.
type Options struct {
	// Core is the per-design verification configuration.
	Core core.Options
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Cache memoizes verification results across items and runs keyed
	// on structural fingerprint + configuration, so items with identical
	// structure verify once. Nil means a run-local cache: twins within
	// the run still verify once, and nothing outlives it.
	Cache *Cache
	// DiskCache, when non-nil, adds the persistent cross-run layer:
	// each in-memory miss consults the cache directory before running
	// core.Verify, and stores its result after.
	DiskCache *DiskCache
	// Obs, when non-nil, collects run telemetry: a "fleet" root span
	// with one child span per item (stage sub-spans under each from
	// core.Verify), deterministic cache counters, duration histograms,
	// and volatile gauges for queue wait, worker utilization and
	// inflight cache blocking. Nil costs nothing on the hot path.
	Obs *obs.Collector
	// Events, when non-nil, receives the live JSONL event stream:
	// run-start/run-end at the fleet level and item-start, cache
	// hit/miss, per-stage, finding and item-end events per item. Per-item
	// events buffer in obs.EventScopes pre-created in input order, so the
	// stream's event sequence is deterministic at any worker count (only
	// the t_ms timestamps vary). The fleet does not Close the sink — the
	// caller owns its lifetime.
	Events *obs.EventSink
	// PprofLabels tags each worker goroutine with the item's name
	// (fcv_cell) while it verifies, and stage names (fcv_stage) inside
	// core.Verify, so CPU profiles attribute samples to cells and
	// pipeline stages.
	PprofLabels bool
	// keySalt is appended to the configuration cache key. Runs whose
	// items are not interchangeable with plain whole-netlist results —
	// hierarchical subcell scopes — salt the key so the two families
	// never share cache entries. Only VerifyHier sets it: a salt from
	// outside could alias entries across item families.
	keySalt string
	// HierInline is the VerifyHier inlining cutoff: cells whose fully
	// flattened device count is at or below it are folded into their
	// parent's verification scope instead of getting their own cache
	// entry (tiny cells cost more to compose than to re-verify).
	// 0 means the default (16); negative disables inlining.
	HierInline int
}

// Result is the outcome for one item.
type Result struct {
	// Name is the item's label.
	Name string
	// Fingerprint is the circuit's structural hash (zero if the report
	// errored before fingerprinting, which cannot currently happen).
	Fingerprint netlist.Fingerprint
	// Cached reports the result came from the in-memory cache rather
	// than this item's own lookup.
	Cached bool
	// DiskHit reports the result was replayed from the persistent disk
	// cache (the Report is then a stored summary: verdict, inspect
	// load, timing numbers and findings, without stage-level detail).
	DiskHit bool
	// stored carries the disk entry's findings on a DiskHit; Findings
	// returns them instead of recomputing from the skeleton report.
	stored []obs.Finding
	// Report is the CBV outcome (nil when Err is set).
	Report *core.Report
	// Err is the per-item failure (recognition error, lint gate, …);
	// one failing item does not abort the fleet.
	Err error
	// Elapsed is the wall-clock cost of obtaining this result (near
	// zero for cache hits). Timing is excluded from the deterministic
	// report text.
	Elapsed time.Duration

	// Hierarchical provenance and composition (set only by VerifyHier;
	// zero for whole-netlist runs).

	// Subcell names the hierarchy cell this result verifies in
	// isolation; empty for whole-netlist items.
	Subcell string
	// Parent names the cell that first instantiates this subcell
	// (empty for the top cell and for flat items).
	Parent string
	// ComposedFrom counts the direct subcell children whose verdicts
	// were folded into this result (0 for leaves and flat items).
	ComposedFrom int
	// ComposedMinPeriodPS is the slowest minimum clock period across
	// this cell's scope and all of its descendants — the interface
	// timing arc composition (0 for flat items).
	ComposedMinPeriodPS float64
	// composed overrides the Report verdict when composeSet: the max of
	// the scope's own verdict, the children's composed verdicts, and
	// the boundary findings' severities.
	composed   checks.Verdict
	composeSet bool
	// extra carries the boundary findings hierarchical composition
	// attributes to this cell (Findings appends them).
	extra []obs.Finding
}

// EffectiveVerdict is the verdict the fleet reports for this item: the
// hierarchically composed verdict when one was set, else the CBV
// report's own. Only meaningful when Err is nil.
func (r *Result) EffectiveVerdict() checks.Verdict {
	if r.composeSet {
		return r.composed
	}
	return r.Report.Verdict
}

// VerdictString is the item's manifest verdict: the CBV verdict, or
// "error" when verification failed.
func (r *Result) VerdictString() string {
	if r.Err != nil {
		return "error"
	}
	return r.EffectiveVerdict().String()
}

// Findings returns the item's provenanced findings: the CBV report's
// non-pass outcomes, or — for an errored item — one synthesized
// "error/verify" finding whose stable ID is derived from the circuit's
// structural fingerprint (so a renamed copy of a broken deck diffs as
// the same finding). A lint-gate abort additionally surfaces the gate's
// own diagnostics, each under its stable lint rule ID, so the manifest
// records *why* the gate tripped, not just that it did.
func (r *Result) Findings() []obs.Finding {
	if r.Err != nil {
		var gate *core.LintGateError
		if errors.As(r.Err, &gate) {
			return core.LintFindings(gate.Report)
		}
		return []obs.Finding{{
			ID:       netlist.StringID("error", "verify", r.Fingerprint.String()),
			Source:   "error",
			Check:    "verify",
			Subject:  r.Name,
			Severity: "error",
			Detail:   r.Err.Error(),
			Evidence: obs.Evidence{Context: "verification aborted"},
		}}
	}
	var base []obs.Finding
	switch {
	case r.stored != nil:
		base = r.stored
	case r.Report != nil:
		base = r.Report.Findings()
	}
	if len(r.extra) == 0 {
		return base
	}
	out := make([]obs.Finding, 0, len(base)+len(r.extra))
	out = append(out, base...)
	return append(out, r.extra...)
}

// Report is the merged outcome of a fleet run.
type Report struct {
	// Results are per-item outcomes in input order.
	Results []Result
	// Hits and Misses count in-memory cache outcomes for this run. Every
	// run has a cache (a run-local one when Options.Cache is nil), so
	// each distinct key is one miss and every later twin one hit.
	Hits, Misses int
	// DiskHits and DiskMisses count persistent-layer outcomes (both
	// zero without a DiskCache). Every in-memory miss is exactly one
	// disk hit, miss or corrupt-miss; DiskMisses includes the corrupt
	// ones, which DiskCorrupt also tallies separately.
	DiskHits, DiskMisses, DiskCorrupt int
	// Workers is the resolved parallelism.
	Workers int
	// Elapsed is the whole run's wall clock.
	Elapsed time.Duration
	// ConfigKey is the verification configuration's cache key — the
	// stable identity a run manifest records so trend tooling only
	// compares like against like.
	ConfigKey string
}

// Verify runs the CBV pipeline over every item with a bounded worker
// pool. The returned report's Results preserve input order, and its
// Text() is byte-identical for a given corpus and configuration no
// matter the worker count — caching and scheduling only change timing
// fields, never outcomes.
func Verify(items []Item, opt Options) *Report {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers < 1 {
		workers = 1
	}
	rep := &Report{
		Results: make([]Result, len(items)),
		Workers: workers,
	}
	start := obs.Now()
	cfg := configKey(&opt.Core) + opt.keySalt
	rep.ConfigKey = cfg
	// Per-item spans are pre-created in input order under the run's
	// root span so the trace tree is deterministic no matter which
	// worker picks an item up; Restart at pickup re-bases the span's
	// clock and yields the item's queue wait. All nil (and free) when
	// telemetry is off.
	root := opt.Obs.Start("fleet")
	spans := make([]*obs.Span, len(items))
	for i := range items {
		spans[i] = root.Child(items[i].Name)
	}
	// Event scopes follow the same pre-creation discipline as spans: one
	// per item in input order, so the flushed stream is deterministic no
	// matter which worker finishes first. The worker-count detail is
	// deliberately not part of run-start — the stream is contractually
	// identical across -j values.
	opt.Events.Emit("run-start", fmt.Sprintf("%d items", len(items)))
	scopes := make([]*obs.EventScope, len(items))
	for i := range items {
		scopes[i] = opt.Events.Scope(items[i].Name)
	}
	// Every lookup goes through a cache, so twins verify once and the
	// disk layer gets the singleflight admission its per-key hit/miss
	// counts need.
	cache := opt.Cache
	if cache == nil {
		cache = NewCache()
	}
	// Cache lookups run in input order: item i looks up only once
	// turn[i] is closed, and closes turn[i+1] when its lookup is done or
	// skipped. Of items sharing a key, the lowest-index one therefore
	// always creates the entry — the run's miss, which carries the
	// stage spans and disk outcome — whatever order the scheduler runs
	// workers in. Only lookups are ordered; verifications overlap.
	turn := make([]chan struct{}, len(items)+1)
	for i := range turn {
		turn[i] = make(chan struct{})
	}
	close(turn[0])
	var hits, misses, inflight, busyNS int64
	var dHits, dMisses, dCorrupt, dWrites, dEvicted int64
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				it := items[i]
				sp := spans[i]
				sc := scopes[i]
				wait := sp.Restart()
				sc.Emit(obs.Event{Type: "item-start"})
				res := Result{Name: it.Name}
				t0 := obs.Now()
				copt := opt.Core
				copt.Trace = sp
				copt.Events = sc
				copt.PprofLabels = opt.PprofLabels
				circ := func() (*netlist.Circuit, error) { return it.Circuit, nil }
				if it.Circuit == nil && it.Lazy != nil {
					// OnceValues upholds Lazy's at-most-once contract even
					// when Key is zero and the fingerprint path calls circ
					// before the cache does again.
					circ = sync.OnceValues(it.Lazy)
				}
				work := func() {
					res.Fingerprint = it.Key
					if res.Fingerprint == (netlist.Fingerprint{}) {
						c, err := circ()
						if err != nil {
							res.Err = err
							<-turn[i]
							close(turn[i+1])
							return
						}
						res.Fingerprint = c.Fingerprint()
					}
					<-turn[i]
					e, fresh, blocked := cache.verify(res.Fingerprint, cfg, circ, copt, opt.DiskCache, func() { close(turn[i+1]) })
					res.Report, res.Err = e.rep, e.err
					res.Cached = !fresh
					res.DiskHit = e.disk == diskHit
					res.stored = e.findings
					if fresh {
						atomic.AddInt64(&misses, 1)
						sc.Emit(obs.Event{Type: "cache-miss", Detail: res.Fingerprint.Short()})
						// The disk outcome belongs to the fresh caller —
						// the one whose lookup ran the once.
						switch e.disk {
						case diskHit:
							atomic.AddInt64(&dHits, 1)
							sc.Emit(obs.Event{Type: "disk-hit", Detail: res.Fingerprint.Short()})
						case diskMiss:
							atomic.AddInt64(&dMisses, 1)
							sc.Emit(obs.Event{Type: "disk-miss", Detail: res.Fingerprint.Short()})
						case diskCorrupt:
							atomic.AddInt64(&dMisses, 1)
							atomic.AddInt64(&dCorrupt, 1)
							sc.Emit(obs.Event{Type: "disk-corrupt", Detail: res.Fingerprint.Short()})
						}
						if e.diskWrote {
							atomic.AddInt64(&dWrites, 1)
						}
						atomic.AddInt64(&dEvicted, int64(e.diskEvicted))
					} else {
						atomic.AddInt64(&hits, 1)
						sc.Emit(obs.Event{Type: "cache-hit", Detail: res.Fingerprint.Short()})
					}
					if blocked {
						atomic.AddInt64(&inflight, 1)
					}
				}
				if opt.PprofLabels {
					pprof.Do(context.Background(), pprof.Labels("fcv_cell", it.Name), func(context.Context) { work() })
				} else {
					work()
				}
				res.Elapsed = obs.Now().Sub(t0)
				sp.End()
				if sc != nil {
					// Findings() recomputes from the report — don't pay
					// for it when no event stream is attached.
					for _, f := range res.Findings() {
						sc.Emit(obs.Event{Type: "finding", ID: f.ID, Detail: f.Check + ": " + f.Subject})
					}
				}
				sc.Emit(obs.Event{Type: "item-end", Detail: res.VerdictString()})
				sc.Close()
				if opt.Obs != nil {
					atomic.AddInt64(&busyNS, int64(res.Elapsed))
					opt.Obs.AddGauge("fleet.queue_wait_ms", float64(wait.Microseconds())/1000)
					opt.Obs.Observe("fleet.item_ms", float64(res.Elapsed.Microseconds())/1000)
				}
				rep.Results[i] = res
			}
		}()
	}
	for i := range items {
		next <- i
	}
	close(next)
	wg.Wait()
	rep.Hits, rep.Misses = int(hits), int(misses)
	rep.DiskHits, rep.DiskMisses, rep.DiskCorrupt = int(dHits), int(dMisses), int(dCorrupt)
	rep.Elapsed = obs.Now().Sub(start)
	root.End()
	pass, inspect, violation, failed := rep.Counts()
	opt.Events.Emit("run-end", fmt.Sprintf("pass=%d inspect=%d violation=%d error=%d", pass, inspect, violation, failed))
	if opt.Obs != nil {
		// Counters are the deterministic half (hit/miss counts are
		// fixed by singleflight admission for a given corpus); gauges
		// carry the scheduling-dependent quantities.
		opt.Obs.Add("fleet.items", int64(len(items)))
		opt.Obs.Add("fleet.cache.hits", int64(hits))
		opt.Obs.Add("fleet.cache.misses", int64(misses))
		if opt.DiskCache != nil {
			// Deterministic for a given corpus AND starting cache-dir
			// state: singleflight admission fixes which keys consult
			// the disk, so only the directory's contents move these.
			opt.Obs.Add("fleet.diskcache.hit", int64(dHits))
			opt.Obs.Add("fleet.diskcache.miss", int64(dMisses))
			opt.Obs.Add("fleet.diskcache.corrupt", int64(dCorrupt))
			opt.Obs.Add("fleet.diskcache.write", dWrites)
			opt.Obs.Add("fleet.diskcache.evict", int64(dEvicted))
		}
		opt.Obs.SetGauge("fleet.cache.inflight", float64(inflight))
		opt.Obs.SetGauge("fleet.workers", float64(workers))
		if rep.Elapsed > 0 {
			opt.Obs.SetGauge("fleet.worker_utilization",
				float64(busyNS)/(float64(rep.Elapsed.Nanoseconds())*float64(workers)))
		}
	}
	return rep
}

// CorpusFromLibrary builds one item per library cell (flattened), in
// sorted cell-name order. Cells that fail to flatten become items with
// a pre-set error via a zero-device placeholder — the fleet reports
// them rather than silently dropping corpus members.
func CorpusFromLibrary(lib *netlist.Library) ([]Item, []error) {
	var items []Item
	var errs []error
	for _, name := range lib.Cells() {
		flat, err := lib.Flatten(name)
		if err != nil {
			errs = append(errs, fmt.Errorf("fleet: cell %s: %w", name, err))
			continue
		}
		items = append(items, Item{Name: name, Circuit: flat})
	}
	return items, errs
}

// Counts tallies the corpus verdicts: designs passing outright,
// needing inspection, in violation, and erroring.
func (r *Report) Counts() (pass, inspect, violation, failed int) {
	for _, res := range r.Results {
		switch {
		case res.Err != nil:
			failed++
		case res.EffectiveVerdict() == checks.Pass:
			pass++
		case res.EffectiveVerdict() == checks.Inspect:
			inspect++
		default:
			violation++
		}
	}
	return
}

// HasViolations reports whether any item ended in violation or error —
// the fleet-level exit-code condition.
func (r *Report) HasViolations() bool {
	for _, res := range r.Results {
		if res.Err != nil || res.EffectiveVerdict() == checks.Violation {
			return true
		}
	}
	return false
}

// Text renders the deterministic merged report: one row per item in
// input order plus the corpus rollup. Wall-clock timing and cache
// traffic are deliberately excluded — they vary run to run, and the
// text is contractually byte-identical across runs and worker counts
// (the fleet tests assert it). Use TimingText for the volatile half.
func (r *Report) Text() string {
	var sb strings.Builder
	sb.WriteString("fleet verification report\n")
	for _, res := range r.Results {
		if res.Err != nil {
			fmt.Fprintf(&sb, "  %-20s %s  ERROR: %v\n", res.Name, res.Fingerprint.Short(), res.Err)
			continue
		}
		rep := res.Report
		minPeriod := rep.Timing.MinPeriodPS
		if res.ComposedMinPeriodPS > minPeriod {
			minPeriod = res.ComposedMinPeriodPS
		}
		fmt.Fprintf(&sb, "  %-20s %s  %-9s inspect=%-3d races=%-2d min-period=%.0fps\n",
			res.Name, res.Fingerprint.Short(), res.EffectiveVerdict(), rep.InspectLoad,
			len(rep.Timing.Races), minPeriod)
	}
	pass, inspect, violation, failed := r.Counts()
	fmt.Fprintf(&sb, "corpus: %d designs — pass=%d inspect=%d violation=%d error=%d\n",
		len(r.Results), pass, inspect, violation, failed)
	return sb.String()
}

// TimingText renders the run-variable half: per-design wall clock,
// cache traffic and parallelism.
func (r *Report) TimingText() string {
	var sb strings.Builder
	for _, res := range r.Results {
		src := "verified"
		switch {
		case res.Cached:
			src = "cached"
		case res.DiskHit:
			src = "disk"
		}
		fmt.Fprintf(&sb, "  %-20s %8.2fms  %s\n", res.Name, float64(res.Elapsed.Microseconds())/1000, src)
	}
	fmt.Fprintf(&sb, "fleet: %d workers, %.2fms wall, cache hits=%d misses=%d\n",
		r.Workers, float64(r.Elapsed.Microseconds())/1000, r.Hits, r.Misses)
	if r.DiskHits+r.DiskMisses > 0 {
		fmt.Fprintf(&sb, "disk cache: hits=%d misses=%d corrupt=%d (hit ratio %.0f%%)\n",
			r.DiskHits, r.DiskMisses, r.DiskCorrupt,
			100*float64(r.DiskHits)/float64(r.DiskHits+r.DiskMisses))
	}
	return sb.String()
}

// configKey serializes every Options field that can change a
// verification outcome into a stable string. Two runs with equal keys
// and equal fingerprints must produce interchangeable reports — this is
// what makes the cache sound across Options values. Map-typed fields
// are serialized in sorted order; the clock is the *resolved* spec so
// an explicit default and an implicit one share cache entries.
func configKey(o *core.Options) string {
	var sb strings.Builder
	if o.Proc != nil {
		fmt.Fprintf(&sb, "proc=%+v", *o.Proc)
	}
	ck := o.ResolvedClock()
	fmt.Fprintf(&sb, "|clock=%g", ck.PeriodPS)
	for _, name := range ck.PhaseNames() {
		ph := ck.Phases[name]
		fmt.Fprintf(&sb, ",%s[%g,%g]", name, ph.OpenPS, ph.ClosePS)
	}
	fmt.Fprintf(&sb, "|pess=%g|couplings=", o.CouplingPessimism)
	for _, c := range o.Couplings {
		fmt.Fprintf(&sb, "%s<%s:%g;", c.Victim, c.Aggressor, c.CapFF)
	}
	sb.WriteString("|antenna=")
	antNets := make([]string, 0, len(o.AntennaRatios))
	for net := range o.AntennaRatios {
		antNets = append(antNets, net)
	}
	sort.Strings(antNets)
	for _, net := range antNets {
		fmt.Fprintf(&sb, "%s:%g;", net, o.AntennaRatios[net])
	}
	fmt.Fprintf(&sb, "|lint=%v", o.Lint)
	if o.Lint {
		lo := o.LintOptions
		sb.WriteString(",rules=")
		for _, r := range lo.Rules {
			sb.WriteString(r.ID())
			sb.WriteByte(';')
		}
		fmt.Fprintf(&sb, ",fanout=%d,wl=[%g,%g],geom=[%g,%g],waivers=%s",
			lo.FanoutLimit, lo.MinWL, lo.MaxWL, lo.MaxWUm, lo.MaxLUm, lo.Waivers.KeyString())
	}
	return sb.String()
}
