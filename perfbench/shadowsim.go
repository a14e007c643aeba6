package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/shadow"
	"repro/internal/switchsim"
)

// shadow-sim: §4.1 shadow mode. Each op is one 64-lane shadow.RunBlocks
// call with a single block and a fresh simulator pair, comparing the
// transistor-level domino adder on switchsim.PackedSim against its RTL
// golden on rtl.PackedSim over seeded vectors. nproc runners drive it.

const (
	adderBits    = 16
	shadowCopies = 16
)

var shadowInputs = []string{"a", "b", "cin"}

type shadowState struct {
	seed int64
	// Ops cycle through copies of the design and circuit: simulation
	// speed depends on where these shared read-only structures landed in
	// memory, so one copy would tie a whole run to one placement.
	designs  []*rtl.Design
	ckts     []*netlist.Circuit
	bind     shadow.Binding
	cycles   int
	compares int // lane comparisons one op must make
}

// copyOf is op i's copy of the design and circuit.
func (st *shadowState) copyOf(i int) (*rtl.Design, *netlist.Circuit) {
	k := (i%shadowCopies + shadowCopies) % shadowCopies
	return st.designs[k], st.ckts[k]
}

// opSeed is op i's stimulus seed.
func (st *shadowState) opSeed(i int) int64 { return int64(opRNG(st.seed, "shadow", i).Uint64()) }

func setupShadow(cfg config) (*shadowState, error) {
	prog, err := rtl.ParseString(designs.AdderRTL(adderBits))
	if err != nil {
		return nil, err
	}
	st := &shadowState{seed: cfg.seed, cycles: 40}
	for k := 0; k < shadowCopies; k++ {
		d, err := rtl.Elaborate(prog)
		if err != nil {
			return nil, err
		}
		st.designs = append(st.designs, d)
		st.ckts = append(st.ckts, designs.DominoAdder(adderBits))
	}
	d := st.designs[0]
	if cfg.tiny {
		st.cycles = 4
	}
	st.bind = shadow.Binding{
		Inputs:  map[string]string{"cin": "cin"},
		Outputs: map[string]string{"cout": "cout"},
		Clocks:  map[string]string{"phi1": "phi1"},
	}
	for i := 0; i < adderBits; i++ {
		st.bind.Inputs[fmt.Sprintf("a%d", i)] = fmt.Sprintf("a[%d]", i)
		st.bind.Inputs[fmt.Sprintf("b%d", i)] = fmt.Sprintf("b[%d]", i)
		st.bind.Outputs[fmt.Sprintf("s%d", i)] = fmt.Sprintf("s[%d]", i)
	}
	st.compares = st.cycles * len(d.Phases) * len(st.bind.Outputs) * switchsim.Lanes
	// Untimed warm-up on the timed loop's runners.
	var r result
	loop{workers: cfg.nproc, first: -8 * cfg.nproc, checkpoint: 0, op: func(i int) []sample {
		return []sample{st.run(i, &r, nil)}
	}}.run()
	if len(r.problems) > 0 {
		return nil, fmt.Errorf("warm-up: %s", r.problems[0])
	}
	return st, nil
}

// run is op i: one single-block shadow sweep, checked for zero
// mismatches and the expected lane-comparison count.
func (st *shadowState) run(i int, r *result, tr *tracer) sample {
	t0 := obs.Now()
	design, ckt := st.copyOf(i)
	reps, err := shadow.RunBlocks(design, ckt, st.bind, shadow.BlockRunConfig{
		Blocks: 1, Cycles: st.cycles, Workers: 1, Seed: st.opSeed(i), Inputs: shadowInputs,
	})
	d := obs.Now().Sub(t0)
	tr.add(i, 0, "shadow.compare", t0, d, "")
	switch {
	case err != nil:
		r.problem(fmt.Sprintf("op %d: %v", i, err))
	case len(reps) != 1:
		r.problem(fmt.Sprintf("op %d: %d block reports, want 1", i, len(reps)))
	case len(reps[0].Mismatches) > 0 || reps[0].Compared != st.compares:
		r.problem(fmt.Sprintf("op %d: mismatches %v, %d lane comparisons (want 0 and %d)",
			i, reps[0].Mismatches, reps[0].Compared, st.compares))
	default:
		return sample{ms: ms(d), ok: true}
	}
	return sample{ms: ms(d)}
}

// replayShadow re-runs op i's engines alone on its vectors: building
// each simulator, stepping the RTL through the block's cycles, and
// settling the circuit on the same input planes with the same clock
// choreography. The block's time minus these is the shadow's own
// drive-and-compare work.
func (st *shadowState) replayShadow(i int) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	design, ckt := st.copyOf(i)
	t0 := obs.Now()
	rs, err := rtl.NewPackedSimFromDesign(design)
	t1 := obs.Now()
	if err != nil {
		return nil, err
	}
	cs, err := switchsim.NewPacked(ckt)
	t2 := obs.Now()
	if err != nil {
		return nil, err
	}
	out["rtl.build"], out["switchsim.build"] = t1.Sub(t0), t2.Sub(t1)
	stim, err := rtl.NewPackedStimulus(rs, st.opSeed(i), shadowInputs...)
	if err != nil {
		return nil, err
	}
	t3 := obs.Now()
	for c := 0; c < st.cycles; c++ {
		stim.Vector()
		rs.Cycle()
	}
	out["rtl.step"] = obs.Now().Sub(t3)

	// Input planes per cycle, recorded untimed from a second stimulus.
	rec, err := rtl.NewPackedSimFromDesign(design)
	if err != nil {
		return nil, err
	}
	stim2, err := rtl.NewPackedStimulus(rec, st.opSeed(i), shadowInputs...)
	if err != nil {
		return nil, err
	}
	nodes := sortedKeys(st.bind.Inputs)
	planes := make([][]uint64, st.cycles)
	var buf []uint64
	for c := range planes {
		stim2.Vector()
		for _, n := range nodes {
			name, bit := splitBit(st.bind.Inputs[n])
			buf = rec.GetPlanes(name, buf)
			planes[c] = append(planes[c], buf[bit])
		}
	}
	t4 := obs.Now()
	for c := range planes {
		cs.SetQuietAll("phi1", switchsim.Lo)
		for k, n := range nodes {
			cs.SetQuietLanes(n, planes[c][k], ^planes[c][k])
		}
		cs.Settle()
		cs.SetQuietAll("phi1", switchsim.Hi)
		cs.Settle()
		cs.SetQuietAll("phi1", switchsim.Lo)
		cs.Settle()
	}
	out["switchsim.settle"] = obs.Now().Sub(t4)
	return out, nil
}

// splitBit splits "name[bit]" (bit 0 when absent).
func splitBit(ref string) (string, int) {
	name, idx, ok := strings.Cut(ref, "[")
	if !ok {
		return ref, 0
	}
	bit, _ := strconv.Atoi(strings.TrimSuffix(idx, "]"))
	return name, bit
}

func runShadowSim(cfg config) (*result, error) {
	st, setupS, err := repeatSetup(cfg.setups, func() (*shadowState, error) { return setupShadow(cfg) }, nil)
	if err != nil {
		return nil, err
	}
	r := &result{setupS: setupS}
	checkpoint := 250
	if cfg.tiny {
		checkpoint = 8
	}
	var compares atomic.Int64
	dg := sha256.New()
	var b [8]byte
	for i := 0; i < checkpoint; i++ {
		binary.LittleEndian.PutUint64(b[:], uint64(st.opSeed(i)))
		dg.Write(b[:])
	}
	r.digest = digest(dg)
	phaseBudget := cfg.budget
	if cfg.traced {
		phaseBudget /= 2
	}
	p := loop{
		workers: cfg.nproc, checkpoint: checkpoint, budget: phaseBudget,
		atCheckpoint: func() {
			r.heapMB = liveHeapMB(st)
			r.heapAt = checkpoint
			r.work = []count{
				{"ops", int64(checkpoint)},
				{"lane_compares", compares.Load()},
			}
		},
		op: func(i int) []sample {
			s := st.run(i, r, nil)
			if i < checkpoint && s.ok {
				compares.Add(int64(st.compares))
			}
			return []sample{s}
		},
	}.run()
	r.samples, r.wall = p.samples, p.wall
	r.countFailed()
	if !cfg.traced {
		return r, nil
	}

	tr := newTracer()
	meter := startRuntimeMeter()
	tp := loop{workers: cfg.nproc, first: p.next, budget: phaseBudget, op: func(i int) []sample {
		return []sample{st.run(i, r, tr)}
	}}.run()
	allocMB, gcPct := meter.stop(len(tp.samples))
	r.traced = tp.samples
	// Replay an evenly spaced sample of traced ops on nproc goroutines,
	// as many as ran the ops; the ledger covers the sampled ops.
	sampled := map[int]bool{}
	n := tp.next - p.next
	for k := 0; k < min(64, n); k++ {
		sampled[p.next+k*n/min(64, n)] = true
	}
	ops := sortedInts(sampled)
	replays := make([]map[string]time.Duration, len(ops))
	errs := make([]error, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(ops); k = int(next.Add(1) - 1) {
				replays[k], errs[k] = st.replayShadow(ops[k])
			}
		}()
	}
	wg.Wait()
	roots := map[int]span{}
	tr.mu.Lock()
	for _, s := range tr.spans {
		roots[s.Op] = s
	}
	tr.mu.Unlock()
	for k, i := range ops {
		if errs[k] != nil {
			return nil, errs[k]
		}
		root := roots[i]
		at := tr.epoch.Add(time.Duration(root.Start * 1e6))
		for _, layer := range sortedKeys(replays[k]) {
			tr.add(i, root.ID, layer, at, replays[k][layer], "replay")
		}
	}
	led := tr.account(len(ops), func(op int) bool { return sampled[op] })
	led.extra["netlist.devices_per_op"] = float64(len(st.ckts[0].Devices))
	led.extra["shadow.lane_compares_per_op"] = float64(st.compares)
	led.extra["runtime.alloc_mb_per_op"] = allocMB
	led.extra["runtime.gc_cpu_pct"] = gcPct
	led.extra["trace.overhead_pct"] = overheadPct(opsPerS(p.samples, p.wall), opsPerS(tp.samples, tp.wall))
	r.ledger, r.tracer = led, tr
	return r, nil
}
