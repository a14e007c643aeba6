package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"repro/internal/designs"
	"repro/internal/fleet"
	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// hier-edit: the designer/agent edit loop over a deep hierarchy. Each
// op changes one device width in one seeded leaf cell, re-renders and
// parses the deck, runs fleet.VerifyHier against the warm shared cache
// and builds the manifest.

const hierDeckName = "deep_tree.sp"

type hierState struct {
	lib      *netlist.Library // the design under edit
	top      string
	leaves   []string
	orig     map[*netlist.Device]float64 // unedited widths
	cache    *fleet.Cache
	rng      *obs.RNG // the edit stream, consumed one edit per op
	deckTop  *netlist.Circuit
	units    int // subcells per VerifyHier
	pathLen  int // subcells a one-leaf edit recomputes
	devices  int // flattened devices of the whole design
	checkOps map[int]bool
}

func setupHier(cfg config, checkpoint int) (*hierState, error) {
	levels, variants := 3, 20 // 66 subcells, a ~90 KB deck
	if cfg.tiny {
		levels, variants = 2, 3
	}
	lib, top := designs.DeepTree(levels, variants, 0)
	st := &hierState{
		lib: lib, top: top, orig: map[*netlist.Device]float64{},
		cache: fleet.NewCache(), rng: opRNG(cfg.seed, "hier-edits", 0),
		deckTop: netlist.New("deck"),
	}
	for _, name := range lib.Cells() {
		if strings.HasPrefix(name, "dt_l0_") {
			st.leaves = append(st.leaves, name)
		}
	}
	// Cold verify of the whole hierarchy fills the shared cache.
	deck, err := st.render()
	if err != nil {
		return nil, err
	}
	plib, ptop, err := fleet.HierFromDeck(bytes.NewReader(deck), hierDeckName, st.top)
	if err != nil {
		return nil, err
	}
	hfp, err := plib.HierFingerprint(ptop)
	if err != nil {
		return nil, err
	}
	st.devices = hfp.Cells[st.top].FlatDevices
	rep, err := fleet.VerifyHier(plib, ptop, fleet.Options{Core: verifyOptions(), Workers: cfg.nproc, Cache: st.cache})
	if err != nil {
		return nil, err
	}
	st.units = len(rep.Results)
	parent := map[string]string{}
	for _, res := range rep.Results {
		parent[res.Subcell] = res.Parent
	}
	for c := st.leaves[0]; c != ""; c = parent[c] {
		st.pathLen++
	}
	// Seeded sample of checkpoint ops whose warm result is compared with
	// a cold VerifyHier of the same deck.
	pick := opRNG(cfg.seed, "hier-checks", 0)
	st.checkOps = map[int]bool{0: true}
	for len(st.checkOps) < min(3, checkpoint) {
		st.checkOps[pick.Intn(checkpoint)] = true
	}
	// Untimed warm-up edits.
	var r result
	for i := 0; i < 16; i++ {
		st.edit(cfg, -1-i, &r, nil, nil)
	}
	if len(r.problems) > 0 {
		return nil, fmt.Errorf("warm-up: %s", r.problems[0])
	}
	return st, nil
}

// render writes the whole library as one deck.
func (st *hierState) render() ([]byte, error) {
	var buf bytes.Buffer
	err := netlist.Write(&buf, st.lib, st.deckTop)
	return buf.Bytes(), err
}

// hierOp is what one edit leaves behind for checks and replays.
type hierOp struct {
	i          int
	deck       []byte
	recomputed []string
	hits       int
	summary    []string // per result: name, verdict, finding IDs
}

// summarize renders a report's per-subcell verdicts and finding IDs.
func summarize(rep *fleet.Report) []string {
	out := make([]string, len(rep.Results))
	for i := range rep.Results {
		res := &rep.Results[i]
		out[i] = res.Name + " " + res.VerdictString() + " " + strings.Join(findingIDs(res.Findings()), ",")
	}
	return out
}

// edit applies op i's edit and re-verifies. keep receives the op's
// record when non-nil.
func (st *hierState) edit(cfg config, i int, r *result, tr *tracer, keep func(hierOp)) sample {
	t0 := obs.Now()
	cell := st.lib.Cell(st.leaves[st.rng.Intn(len(st.leaves))])
	d := cell.Devices[st.rng.Intn(len(cell.Devices))]
	w0, seen := st.orig[d]
	if !seen {
		w0 = d.W
		st.orig[d] = w0
	}
	d.W = w0 * (0.8 + 0.4*st.rng.Float64())

	root := tr.add(i, 0, opSpan, t0, 0, "")
	var deck []byte
	var err error
	tr.timed(i, root, "netlist.write", func() { deck, err = st.render() })
	if err != nil {
		r.problem(fmt.Sprintf("op %d: render: %v", i, err))
		return sample{ms: ms(obs.Now().Sub(t0))}
	}
	var plib *netlist.Library
	var ptop *netlist.Circuit
	tr.timed(i, root, "netlist.parse", func() {
		plib, ptop, err = fleet.HierFromDeck(bytes.NewReader(deck), hierDeckName, st.top)
	})
	if err != nil {
		r.problem(fmt.Sprintf("op %d: parse: %v", i, err))
		return sample{ms: ms(obs.Now().Sub(t0))}
	}
	var col *obs.Collector
	if tr != nil {
		col = obs.New()
	}
	var rep *fleet.Report
	vt0 := obs.Now()
	verify := tr.timed(i, root, "fleet.self", func() {
		rep, err = fleet.VerifyHier(plib, ptop, fleet.Options{Core: verifyOptions(), Workers: cfg.nproc, Cache: st.cache, Obs: col})
	})
	if err != nil {
		r.problem(fmt.Sprintf("op %d: verify: %v", i, err))
		return sample{ms: ms(obs.Now().Sub(t0))}
	}
	var jerr error
	tr.timed(i, root, "obs.manifest", func() {
		_, jerr = fleet.BuildManifest("fcv verify", rep, col).JSON()
	})
	lat := obs.Now().Sub(t0)
	if tr != nil {
		tr.mu.Lock()
		tr.spans[root-1].End = tr.spans[root-1].Start + ms(lat)
		tr.mu.Unlock()
	}
	op := hierOp{i: i, deck: deck, hits: rep.Hits}
	var stages map[string][]obs.SpanInfo
	if tr != nil {
		stages = stageSpans(col)
	}
	ok := jerr == nil && len(rep.Results) == st.units && rep.Misses == st.pathLen
	for j := range rep.Results {
		res := &rep.Results[j]
		if res.Err != nil {
			ok = false
			continue
		}
		if !res.Cached {
			op.recomputed = append(op.recomputed, res.Subcell)
			tr.addStages(stages[res.Name], i, verify, vt0)
		}
	}
	if !ok {
		r.problem(fmt.Sprintf("op %d: %d results, %d recomputed (want %d and %d), manifest error %v",
			i, len(rep.Results), rep.Misses, st.units, st.pathLen, jerr))
	}
	if keep != nil {
		if st.checkOps[i] {
			op.summary = summarize(rep)
		}
		keep(op)
	}
	return sample{ms: ms(lat), ok: ok}
}

// coldCheck re-verifies a kept deck on an empty cache and compares the
// composed verdicts and finding IDs with the warm run's.
func coldCheck(cfg config, op hierOp) error {
	plib, ptop, err := fleet.HierFromDeck(bytes.NewReader(op.deck), hierDeckName, "")
	if err != nil {
		return err
	}
	rep, err := fleet.VerifyHier(plib, ptop, fleet.Options{Core: verifyOptions(), Workers: cfg.nproc, Cache: fleet.NewCache()})
	if err != nil {
		return err
	}
	cold := summarize(rep)
	if len(cold) != len(op.summary) {
		return fmt.Errorf("cold run has %d subcells, warm %d", len(cold), len(op.summary))
	}
	for k := range cold {
		if cold[k] != op.summary[k] {
			return fmt.Errorf("warm %q, cold %q", op.summary[k], cold[k])
		}
	}
	return nil
}

func runHierEdit(cfg config) (*result, error) {
	checkpoint := 150
	if cfg.tiny {
		checkpoint = 4
	}
	st, setupS, err := repeatSetup(cfg.setups, func() (*hierState, error) { return setupHier(cfg, checkpoint) }, nil)
	if err != nil {
		return nil, err
	}
	r := &result{setupS: setupS}
	var recomputed, hits int64
	checks := map[int]hierOp{}
	phaseBudget := cfg.budget
	if cfg.traced {
		phaseBudget /= 2
	}
	dg := sha256.New()
	p := loop{
		workers: 1, checkpoint: checkpoint, budget: phaseBudget,
		atCheckpoint: func() {
			r.heapMB = liveHeapMB(st)
			r.heapAt = checkpoint
			r.work = []count{
				{"edits", int64(checkpoint)},
				{"devices_per_edit", int64(st.devices)},
				{"subcells_recomputed", recomputed},
				{"subcell_cache_hits", hits},
			}
		},
		op: func(i int) []sample {
			var keep func(hierOp)
			if i < checkpoint {
				keep = func(op hierOp) {
					dg.Write(op.deck)
					recomputed += int64(len(op.recomputed))
					hits += int64(op.hits)
					if st.checkOps[i] {
						checks[i] = op
					}
				}
			}
			return []sample{st.edit(cfg, i, r, nil, keep)}
		},
	}.run()
	r.samples, r.wall = p.samples, p.wall
	r.digest = digest(dg)
	for _, i := range sortedInts(checks) {
		if err := coldCheck(cfg, checks[i]); err != nil {
			r.samples[i].ok = false
			r.problem(fmt.Sprintf("op %d: warm result differs from cold VerifyHier: %v", i, err))
		}
	}
	r.countFailed()
	if !cfg.traced {
		return r, nil
	}

	// Traced phase: the deck state before it seeds the replay memos.
	before, err := st.render()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var ops []hierOp
	meter := startRuntimeMeter()
	tp := loop{workers: 1, first: p.next, budget: phaseBudget, op: func(i int) []sample {
		return []sample{st.edit(cfg, i, r, tr, func(op hierOp) { ops = append(ops, op) })}
	}}.run()
	allocMB, gcPct := meter.stop(len(tp.samples))
	r.traced = tp.samples
	if err := replayHier(tr, before, st.top, ops); err != nil {
		return nil, err
	}
	led := tr.account(len(tp.samples), nil)
	var rec, hit float64
	for _, op := range ops {
		rec += float64(len(op.recomputed))
		hit += float64(op.hits)
	}
	n := float64(max(len(ops), 1))
	led.extra["netlist.devices_per_op"] = float64(st.devices)
	led.extra["fleet.recomputed_per_op"] = rec / n
	led.extra["fleet.cache_hit_pct"] = 100 * hit / (hit + rec)
	led.extra["runtime.alloc_mb_per_op"] = allocMB
	led.extra["runtime.gc_cpu_pct"] = gcPct
	led.extra["trace.overhead_pct"] = overheadPct(opsPerS(p.samples, p.wall), opsPerS(tp.samples, tp.wall))
	r.ledger, r.tracer = led, tr
	return r, nil
}

// replayHier re-runs VerifyHier's public sub-steps for every traced
// edit, in order, against replay-side memos warmed on the deck state
// before the traced phase — so each replay hashes, flattens, scopes and
// derives interfaces and boundaries for exactly the cells its op did.
// The times land under each op's "fleet.self" span.
func replayHier(tr *tracer, before []byte, top string, ops []hierOp) error {
	memo := netlist.NewHierFPMemo()
	ifcs := map[netlist.Fingerprint]*hier.Interface{}
	bounds := map[netlist.Fingerprint]bool{}
	step := func(deck []byte, recomputed []string, record func(name string, d time.Duration)) error {
		plib, ptop, err := fleet.HierFromDeck(bytes.NewReader(deck), hierDeckName, top)
		if err != nil {
			return err
		}
		t0 := obs.Now()
		hfp, err := plib.HierFingerprintMemo(ptop, memo)
		record("netlist.dag_hash", obs.Now().Sub(t0))
		if err != nil {
			return err
		}
		keep := func(name string) bool {
			ci := hfp.Cells[name]
			return name == top || (ci != nil && ci.FlatDevices > fleet.DefaultHierInline)
		}
		cellOf := func(name string) *netlist.Circuit {
			if name == top {
				return ptop
			}
			return plib.Cell(name)
		}
		eff := map[string]*netlist.Circuit{}
		effOf := func(name string) (*netlist.Circuit, error) {
			if e := eff[name]; e != nil {
				return e, nil
			}
			t0 := obs.Now()
			e, err := plib.FlattenKeep(cellOf(name), keep)
			record("netlist.flatten", obs.Now().Sub(t0))
			eff[name] = e
			return e, err
		}
		var ifcOf func(name string) (*hier.Interface, error)
		children := func(name string) (map[string]*hier.Interface, error) {
			out := map[string]*hier.Interface{}
			for _, ch := range hfp.Cells[name].Children {
				if !keep(ch) {
					continue
				}
				ci, err := ifcOf(ch)
				if err != nil {
					return nil, err
				}
				out[ch] = ci
			}
			return out, nil
		}
		ifcOf = func(name string) (*hier.Interface, error) {
			dag := hfp.Cells[name].DAG
			if ifc := ifcs[dag]; ifc != nil {
				return ifc, nil
			}
			kids, err := children(name)
			if err != nil {
				return nil, err
			}
			e, err := effOf(name)
			if err != nil {
				return nil, err
			}
			t0 := obs.Now()
			ifc, err := hier.CellInterface(e, kids)
			record("hier.interface", obs.Now().Sub(t0))
			ifcs[dag] = ifc
			return ifc, err
		}
		for _, name := range recomputed {
			e, err := effOf(name)
			if err != nil {
				return err
			}
			t0 := obs.Now()
			hier.ScopeCircuit(e)
			record("hier.scope", obs.Now().Sub(t0))
		}
		for _, name := range hfp.Order {
			if !keep(name) || bounds[hfp.Cells[name].DAG] {
				continue
			}
			kids, err := children(name)
			if err != nil {
				return err
			}
			if len(kids) == 0 {
				continue
			}
			e, err := effOf(name)
			if err != nil {
				return err
			}
			t0 := obs.Now()
			_, err = hier.BoundaryFindings(e, kids)
			record("hier.boundary", obs.Now().Sub(t0))
			if err != nil {
				return err
			}
			bounds[hfp.Cells[name].DAG] = true
		}
		return nil
	}
	// Warm the memos on the pre-trace state; its times are not recorded.
	if err := step(before, nil, func(string, time.Duration) {}); err != nil {
		return err
	}
	parents := map[int]span{}
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name == "fleet.self" {
			parents[s.Op] = s
		}
	}
	tr.mu.Unlock()
	for _, op := range ops {
		p := parents[op.i]
		at := tr.epoch.Add(time.Duration(p.Start * 1e6))
		err := step(op.deck, op.recomputed, func(name string, d time.Duration) {
			tr.add(op.i, p.ID, name, at, d, "replay")
		})
		if err != nil {
			return err
		}
	}
	return nil
}
