package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"time"

	"repro/internal/fleet"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// batch-cold: `fcv verify -j nproc` over a seeded corpus of distinct
// flat designs. One op is one design; one pass parses every deck, runs
// one fleet.Verify against an empty cache and builds the manifest.

// batchSlots is the full-size corpus: 33 designs whose cold pass is
// dominated by recognition, with the SRAM and register-file arrays as
// the stragglers that end each pass.
var batchSlots = []slot{
	{invChain, 8, 15}, {invChain, 16, 23}, {invChain, 24, 31}, {invChain, 32, 47}, {invChain, 48, 63},
	{adder, 4, 6}, {adder, 7, 9}, {adder, 10, 12}, {adder, 13, 15},
	{pipe, 4, 5}, {pipe, 6, 7}, {pipe, 8, 9}, {pipe, 10, 11},
	{racyPipe, 4, 5}, {racyPipe, 6, 7}, {racyPipe, 8, 9}, {racyPipe, 10, 12},
	{passMux, 4, 7}, {passMux, 8, 11}, {passMux, 12, 15},
	{dcvsl, 4, 7}, {dcvsl, 8, 11}, {dcvsl, 12, 16},
	{sram4, 4, 4}, {sram4, 8, 8}, {sram4, 12, 12}, {sram8, 16, 16},
	{regf4, 2, 2}, {regf4, 4, 4}, {regf8, 4, 4}, {regf8, 8, 8},
	{invChain, 64, 80}, {adder, 16, 18},
}

var batchSlotsTiny = []slot{{invChain, 8, 12}, {adder, 4, 5}, {racyPipe, 4, 6}, {dcvsl, 4, 5}}

// batchDesign is one corpus member as the pass sees it.
type batchDesign struct {
	name    string
	deck    []byte
	devices int
	racyK   int // stage count of a racy pipeline (expects racyK-1 races), else 0
	ref     verdictRef
}

type batchState struct {
	designs []batchDesign
	digest  string
	// Traced passes' fleet.worker_utilization and cache outcomes.
	util         []float64
	hits, misses int
}

func setupBatch(cfg config) (*batchState, error) {
	slots := batchSlots
	if cfg.tiny {
		slots = batchSlotsTiny
	}
	dg := sha256.New()
	st := &batchState{}
	for _, g := range generate("b", slots, opRNG(cfg.seed, "batch-corpus", 0)) {
		deck, err := renderCell(g.c)
		if err != nil {
			return nil, err
		}
		dg.Write(deck)
		ref, err := reference(g.c)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", g.name, err)
		}
		d := batchDesign{name: g.name, deck: deck, devices: len(g.c.Devices), ref: ref}
		if g.fam == racyPipe.name {
			d.racyK = g.size
		}
		st.designs = append(st.designs, d)
	}
	st.digest = digest(dg)
	// Untimed warm-up: one full pass.
	var r result
	st.pass(cfg, 0, &r, nil, nil)
	return st, nil
}

// batchTally accumulates the deterministic counts of checkpoint passes.
type batchTally struct {
	devices, hits, misses int64
}

// pass runs one corpus pass and returns one sample per design. With a
// tracer it records the ledger spans and fleet's stage spans.
func (st *batchState) pass(cfg config, first int, r *result, tally *batchTally, tr *tracer) []sample {
	n := len(st.designs)
	samples := make([]sample, n)
	items := make([]fleet.Item, 0, n)
	idx := make([]int, 0, n) // item -> design
	type load struct {
		at             time.Time
		parse, flatten time.Duration
	}
	loads := make([]load, n)
	for j, d := range st.designs {
		t0 := obs.Now()
		lib, _, err := netlist.ParseNamed(bytes.NewReader(d.deck), d.name+".sp")
		t1 := obs.Now()
		var flat *netlist.Circuit
		if err == nil {
			flat, err = lib.Flatten(d.name)
		}
		loads[j] = load{t0, t1.Sub(t0), obs.Now().Sub(t1)}
		if err != nil {
			r.problem(fmt.Sprintf("%s: parse: %v", d.name, err))
			samples[j] = sample{ms: ms(loads[j].parse + loads[j].flatten)}
			continue
		}
		items = append(items, fleet.Item{Name: d.name, Circuit: flat})
		idx = append(idx, j)
	}
	var col *obs.Collector
	if tr != nil {
		col = obs.New()
	}
	vt0 := obs.Now()
	rep := fleet.Verify(items, fleet.Options{Core: verifyOptions(), Workers: cfg.nproc, Cache: fleet.NewCache(), Obs: col})
	mt0 := obs.Now()
	m := fleet.BuildManifest("fcv verify", rep, col)
	_, jerr := m.JSON()
	mt1 := obs.Now()
	if jerr != nil {
		r.problem(fmt.Sprintf("manifest: %v", jerr))
	}
	var stages map[string][]obs.SpanInfo
	if tr != nil {
		stages = stageSpans(col)
	}
	for k, res := range rep.Results {
		j := idx[k]
		d := &st.designs[j]
		ok := jerr == nil && checkDesign(d, &res, &m.Items[k], r)
		ld := loads[j]
		lat := ld.parse + ld.flatten + res.Elapsed
		samples[j] = sample{ms: ms(lat), ok: ok}
		if tally != nil {
			tally.devices += int64(d.devices)
		}
		if tr != nil {
			op := first + j
			root := tr.add(op, 0, opSpan, ld.at, lat, "")
			tr.add(op, root, "netlist.parse", ld.at, ld.parse, "")
			tr.add(op, root, "netlist.flatten", ld.at.Add(ld.parse), ld.flatten, "")
			item := tr.add(op, root, "fleet.self", vt0, res.Elapsed, "obs")
			tr.addStages(stages[d.name], op, item, vt0)
		}
	}
	if tally != nil {
		tally.hits += int64(rep.Hits)
		tally.misses += int64(rep.Misses)
	}
	if tr != nil {
		tr.add(-1-first, 0, "obs.manifest", mt0, mt1.Sub(mt0), "")
		st.util = append(st.util, col.Gauge("fleet.worker_utilization"))
		st.hits += rep.Hits
		st.misses += rep.Misses
	}
	return samples
}

// checkDesign compares one design's fleet outcome with its direct
// core.Verify reference: verdict, inspect load and the finding-ID set; a
// racy pipeline must also be a violation with k-1 races.
func checkDesign(d *batchDesign, res *fleet.Result, item *obs.ManifestItem, r *result) bool {
	if res.Err != nil {
		r.problem(fmt.Sprintf("%s: %v", d.name, res.Err))
		return false
	}
	got := verdictRef{verdict: item.Verdict, inspect: res.Report.InspectLoad, ids: findingIDs(item.Findings)}
	if got.verdict != d.ref.verdict || got.inspect != d.ref.inspect || !slices.Equal(got.ids, d.ref.ids) {
		r.problem(fmt.Sprintf("%s: fleet %s inspect=%d ids=%d, reference %s inspect=%d ids=%d",
			d.name, got.verdict, got.inspect, len(got.ids), d.ref.verdict, d.ref.inspect, len(d.ref.ids)))
		return false
	}
	if d.racyK > 0 {
		if races := len(res.Report.Timing.Races); got.verdict != "violation" || races != d.racyK-1 {
			r.problem(fmt.Sprintf("%s: racy pipeline of %d stages: %s with %d races, want violation with %d",
				d.name, d.racyK, got.verdict, races, d.racyK-1))
			return false
		}
	}
	return true
}

// runBatchCold is the batch-cold workload.
func runBatchCold(cfg config) (*result, error) {
	st, setupS, err := repeatSetup(cfg.setups, func() (*batchState, error) { return setupBatch(cfg) }, nil)
	if err != nil {
		return nil, err
	}
	r := &result{setupS: setupS, digest: st.digest}
	n := len(st.designs)
	checkpointPasses := 8
	if cfg.tiny {
		checkpointPasses = 2
	}
	var tally batchTally
	var phaseBudget = cfg.budget
	if cfg.traced {
		phaseBudget /= 2
	}
	p := loop{
		workers:    1,
		checkpoint: checkpointPasses,
		budget:     phaseBudget,
		atCheckpoint: func() {
			r.heapMB = liveHeapMB(st)
			r.heapAt = checkpointPasses * n
			r.work = []count{
				{"designs", int64(r.heapAt)},
				{"devices_verified", tally.devices},
				{"fleet_cache_hits", tally.hits},
				{"fleet_cache_misses", tally.misses},
			}
		},
		op: func(i int) []sample {
			var t *batchTally
			if i < checkpointPasses {
				t = &tally
			}
			return st.pass(cfg, i*n, r, t, nil)
		},
	}.run()
	r.samples, r.wall = p.samples, p.wall
	r.countFailed()
	if !cfg.traced {
		return r, nil
	}

	tr := newTracer()
	meter := startRuntimeMeter()
	tp := loop{workers: 1, first: p.next, budget: phaseBudget, op: func(i int) []sample {
		return st.pass(cfg, i*n, r, nil, tr)
	}}.run()
	allocMB, gcPct := meter.stop(len(tp.samples))
	r.traced = tp.samples
	// Replay: fleet fingerprints every item inside its span; time
	// Circuit.Fingerprint alone on each design and place it there.
	fp := make([]time.Duration, n)
	for j, d := range st.designs {
		lib, _, err := netlist.ParseNamed(bytes.NewReader(d.deck), d.name+".sp")
		if err != nil {
			return nil, err
		}
		flat, err := lib.Flatten(d.name)
		if err != nil {
			return nil, err
		}
		fp[j] = medianDuration(3, func() { flat.Fingerprint() })
	}
	tr.addReplays("fleet.self", "netlist.fingerprint", func(op int) time.Duration { return fp[op%n] })
	led := tr.account(len(tp.samples), nil)
	devs := 0
	for _, d := range st.designs {
		devs += d.devices
	}
	led.extra["netlist.devices_per_op"] = float64(devs) / float64(n)
	led.extra["fleet.worker_util_pct"] = 100 * mean(st.util)
	led.extra["fleet.cache_hit_pct"] = 100 * float64(st.hits) / float64(max(st.hits+st.misses, 1))
	led.extra["fleet.recomputed_per_op"] = float64(st.misses) / float64(max(len(tp.samples), 1))
	led.extra["runtime.alloc_mb_per_op"] = allocMB
	led.extra["runtime.gc_cpu_pct"] = gcPct
	led.extra["trace.overhead_pct"] = overheadPct(opsPerS(p.samples, p.wall), opsPerS(tp.samples, tp.wall))
	r.ledger = led
	r.tracer = tr
	return r, nil
}
