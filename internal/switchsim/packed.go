package switchsim

// packed.go is the 64-lane bit-parallel value plane: the classic
// bit-parallel logic-simulation technique (pack independent stimulus
// vectors into machine words so one relaxation pass evaluates all of
// them with word-wide AND/OR/NOT) applied to the switch-level engine.
// The paper's verification farm (§4.1) bought its ~2 billion
// cycles/day with ~100 CPUs; lane packing buys a factor of up to 64 on
// one core before any goroutine is spawned.
//
// Encoding: each node holds two uint64 words (hi, lo) — dual-rail over
// 64 lanes. Lane l is Hi when hi bit l is set and lo bit l is clear,
// Lo for the converse, and X when both bits are set (the invariant
// hi|lo == ^0 always holds; "neither" is not a representable state).
// With this encoding three-valued operations become word logic:
// definite-1 lanes are hi&^lo, definite-0 lanes are lo&^hi, X lanes
// are hi&lo, and an NMOS channel definitely conducts exactly in its
// gate's hi&^lo lanes.
//
// Correctness contract: lane l of a PackedSim is bit-identical to the
// scalar oracle (Scalar, in scalar_test.go) driven with lane l's
// stimulus, for every lane, including
// X propagation, charge retention, charge-sharing degradation, fight
// resolution and oscillation cutoff. The packed_test.go differential
// suite pins this against the scalar oracle across the design corpus.
// The common kernels (rail reachability, value resolution, charge
// sharing) run word-parallel over a flat per-component device table,
// with each device's conduction masks computed once per evaluation and
// rail reachability found in one fused fixpoint. Only strength
// arbitration, which depends on per-lane conduction topology, falls
// back to per-lane evaluation, batched over lane classes with
// identical conduction patterns so symmetric lanes still pay once. A
// 40-cycle DominoAdder(16) shadow block settles 16,851 classes this way
// in 46,507 component evaluations, about a quarter of its settle CPU;
// the switchsim.strength_classes counter reports the class count.

import (
	"math/bits"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/process"
)

// Lanes is the stimulus-vector width of a PackedSim: one machine word
// of independent three-valued lanes per node rail.
const Lanes = 64

// allLanes is the full lane mask.
const allLanes = ^uint64(0)

// PackedSim is a 64-lane switch-level simulator over one flat circuit,
// and the package's only engine. It settles on a dirty-component
// worklist over the circuit's component topology; every settle
// evaluates all 64 lanes at once.
type PackedSim struct {
	*topology
	// hi/lo are the dual-rail value planes, one word of lanes per node.
	hi, lo []uint64
	// driven marks externally forced nodes (inputs, rails). Drivenness
	// is per node, not per lane: an input is driven in every lane,
	// with per-lane values.
	driven []bool

	// tab is every component's flat device table, component by
	// component: component ci owns tab[tabStart[ci]:tabStart[ci+1]],
	// whose first tabInner[ci] entries join two members and whose rest
	// join a member to a rail.
	tab                []flatDev
	tabStart, tabInner []int32

	steps           int
	compEvals       int
	strengthClasses int
	obs             *obs.Collector

	// Dirty-component worklist (mirrors the scalar oracle's): a bitset
	// over components, so a wave reads it out in ascending order
	// without sorting.
	dirty []uint64
	wave  []int

	// Scratch reused across component evaluations. cond is indexed by
	// position in the component's table; the rest by node, written
	// for members only.
	cond                 []laneCond
	reach                []reachRec
	newHi, newLo         []uint64
	floatMask, badCharge []uint64
	chMask               []uint64
	pend                 []packedPending
	changed              []netlist.NodeID
	// Per-lane strength fallback scratch.
	strength []float64
	blocked  []bool
}

// flatDev is one device of a component's flat table: all the settle
// loop reads about a device, so it never dereferences a
// *netlist.Device. In a rail entry a is the member terminal and b the
// rail.
type flatDev struct {
	gate, a, b int32
	pmos       bool
	// bVdd marks a rail entry whose rail is vdd (else vss).
	bVdd bool
	// g is conductanceOf(the device).
	g float64
}

// laneCond is one device's conduction in one evaluation: on holds the
// lanes whose gate definitely turns the channel on, may those where
// it may conduct (on plus the lanes whose gate is X).
type laneCond struct{ on, may uint64 }

// reachRec is one node's rail reachability in one evaluation, the four
// lane masks the scalar engine computes in four passes: a definitely
// conducting path to vdd (dv) and to vss (ds), and a possibly
// conducting one to each (mv, ms). def ⊆ may on each side.
type reachRec struct{ dv, ds, mv, ms uint64 }

// packedPending stages one node's post-wave planes (Jacobi semantics,
// exactly like the scalar pendingVal).
type packedPending struct {
	id     netlist.NodeID
	hi, lo uint64
}

// NewPacked builds a 64-lane simulator. All nodes start at X in every
// lane except the rails.
func NewPacked(c *netlist.Circuit) (*PackedSim, error) {
	t, err := newTopology(c)
	if err != nil {
		return nil, err
	}
	n := len(c.Nodes)
	p := &PackedSim{
		topology:  t,
		hi:        make([]uint64, n),
		lo:        make([]uint64, n),
		driven:    make([]bool, n),
		dirty:     make([]uint64, (len(t.compDevs)+63)/64),
		reach:     make([]reachRec, n),
		newHi:     make([]uint64, n),
		newLo:     make([]uint64, n),
		floatMask: make([]uint64, n),
		badCharge: make([]uint64, n),
		chMask:    make([]uint64, n),
		strength:  make([]float64, n),
		blocked:   make([]bool, n),
	}
	p.buildTable()
	for i := range p.hi {
		p.hi[i] = allLanes
		p.lo[i] = allLanes
	}
	if p.vdd != netlist.InvalidNode {
		p.hi[p.vdd], p.lo[p.vdd] = allLanes, 0
		p.driven[p.vdd] = true
	}
	if p.vss != netlist.InvalidNode {
		p.hi[p.vss], p.lo[p.vss] = 0, allLanes
		p.driven[p.vss] = true
	}
	for ci := range p.compDevs {
		p.markComp(ci)
	}
	return p, nil
}

// buildTable flattens each component's devices into the table: member
// to member entries first, then member to rail entries. A device whose
// source is its drain is left out, as it can neither carry a level nor
// share charge. The order within a component is free, since every pass
// over the table computes a fixpoint or an intersection.
func (p *PackedSim) buildTable() {
	p.tab = make([]flatDev, 0, len(p.c.Devices))
	p.tabStart = make([]int32, len(p.compDevs)+1)
	p.tabInner = make([]int32, len(p.compDevs))
	maxDevs := 0
	for ci, devs := range p.compDevs {
		start := len(p.tab)
		p.tabStart[ci] = int32(start)
		for pass := 0; pass < 2; pass++ {
			for _, d := range devs {
				a, b := d.Source, d.Drain
				if a == b {
					continue
				}
				if p.c.IsSupply(a) {
					a, b = b, a
				}
				if p.c.IsSupply(b) != (pass == 1) {
					continue
				}
				p.tab = append(p.tab, flatDev{
					gate: int32(d.Gate), a: int32(a), b: int32(b),
					pmos: d.Type == process.PMOS,
					bVdd: b == p.vdd,
					g:    conductanceOf(d),
				})
			}
			if pass == 0 {
				p.tabInner[ci] = int32(len(p.tab) - start)
			}
		}
		maxDevs = max(maxDevs, len(p.tab)-start)
	}
	p.tabStart[len(p.compDevs)] = int32(len(p.tab))
	p.cond = make([]laneCond, maxDevs)
}

// table returns component ci's flat table, the conduction scratch for
// it (valid once evalComp has filled it) and the table's
// member-to-member prefix.
func (p *PackedSim) table(ci int) (tab []flatDev, cond []laneCond, inner []flatDev) {
	tab = p.tab[p.tabStart[ci]:p.tabStart[ci+1]]
	return tab, p.cond[:len(tab)], tab[:p.tabInner[ci]]
}

// markComp queues a component for re-evaluation.
func (p *PackedSim) markComp(ci int) {
	if ci >= 0 {
		p.dirty[ci>>6] |= 1 << (uint(ci) & 63)
	}
}

// markNode queues everything a change on the node can disturb.
func (p *PackedSim) markNode(id netlist.NodeID) {
	p.markComp(p.comp[id])
	for _, ci := range p.gateComps[id] {
		p.markComp(ci)
	}
}

// Circuit returns the simulated circuit.
func (p *PackedSim) Circuit() *netlist.Circuit { return p.c }

// normalize repairs lanes where neither rail bit is set (not a
// representable state) to X, so callers can pass (hi, ^hi) or partial
// masks without tripping the dual-rail invariant.
func normalize(hi, lo uint64) (uint64, uint64) {
	missing := ^(hi | lo)
	return hi | missing, lo | missing
}

// SetQuietLanes forces a node to per-lane values without relaxing:
// lane l becomes Hi/Lo/X according to the dual-rail bits. Lanes with
// neither bit set are treated as X.
func (p *PackedSim) SetQuietLanes(name string, hi, lo uint64) {
	id := p.c.FindNode(name)
	if id == netlist.InvalidNode {
		return
	}
	hi, lo = normalize(hi, lo)
	p.hi[id], p.lo[id] = hi, lo
	p.driven[id] = true
	p.markNode(id)
}

// SetLanes forces per-lane values and relaxes, returning the iteration
// count. The hi word carries the lanes to drive high; lanes set in
// both words are X, lanes set in neither are X.
func (p *PackedSim) SetLanes(name string, hi, lo uint64) int {
	p.SetQuietLanes(name, hi, lo)
	return p.Settle()
}

// SetQuietAll forces one value into all 64 lanes of a node.
func (p *PackedSim) SetQuietAll(name string, v Value) {
	switch v {
	case Hi:
		p.SetQuietLanes(name, allLanes, 0)
	case Lo:
		p.SetQuietLanes(name, 0, allLanes)
	default:
		p.SetQuietLanes(name, allLanes, allLanes)
	}
}

// Release removes the external drive from a node (it becomes a
// charged, possibly floating node in every lane) and relaxes.
func (p *PackedSim) Release(name string) int {
	id := p.c.FindNode(name)
	if id == netlist.InvalidNode || p.c.IsSupply(id) {
		return 0
	}
	p.driven[id] = false
	p.markNode(id)
	return p.Settle()
}

// GetLanes returns a node's dual-rail planes (X, X for unknown names).
func (p *PackedSim) GetLanes(name string) (hi, lo uint64) {
	id := p.c.FindNode(name)
	if id == netlist.InvalidNode {
		return allLanes, allLanes
	}
	return p.hi[id], p.lo[id]
}

// GetLane returns one lane of the named node.
func (p *PackedSim) GetLane(name string, lane int) Value {
	id := p.c.FindNode(name)
	if id == netlist.InvalidNode {
		return X
	}
	return p.GetLaneID(id, lane)
}

// GetLaneID returns one lane of a node by ID.
func (p *PackedSim) GetLaneID(id netlist.NodeID, lane int) Value {
	bit := uint64(1) << uint(lane)
	h, l := p.hi[id]&bit != 0, p.lo[id]&bit != 0
	switch {
	case h && l:
		return X
	case h:
		return Hi
	default:
		return Lo
	}
}

// Steps returns the cumulative relaxation iterations.
func (p *PackedSim) Steps() int { return p.steps }

// CompEvals returns the cumulative component evaluations; each one
// covered all 64 lanes.
func (p *PackedSim) CompEvals() int { return p.compEvals }

// SetObserver attaches a telemetry collector: every Settle adds
// switchsim.packed_settles, switchsim.lane_evals and
// switchsim.strength_classes (the lane classes it settled by per-lane
// strength relaxation) counters and keeps the switchsim.lanes gauge at
// the lane width. A nil collector detaches.
func (p *PackedSim) SetObserver(c *obs.Collector) {
	p.obs = c
	if c != nil {
		c.SetGauge("switchsim.lanes", Lanes)
	}
}

// Settle relaxes all 64 lanes to their fixed points and returns the
// wave count. The schedule is a dirty-component worklist, the same as
// the scalar oracle's; a wave evaluates each dirty component once
// across every lane simultaneously.
func (p *PackedSim) Settle() int {
	prevEvals, prevClasses := p.compEvals, p.strengthClasses
	iters := p.settleLoop()
	p.steps += iters
	if p.obs != nil {
		p.obs.Add("switchsim.packed_settles", 1)
		p.obs.Add("switchsim.lane_evals", int64(p.compEvals-prevEvals)*Lanes)
		p.obs.Add("switchsim.strength_classes", int64(p.strengthClasses-prevClasses))
	}
	return iters
}

// settleLoop mirrors the scalar oracle's Settle wave-for-wave. Because a
// wave's evaluation is a pure per-lane function of the pre-wave state
// (Jacobi), and re-evaluating a lane-clean component is idempotent in
// that lane, every lane's value trajectory here is identical to the
// trajectory of a scalar sim fed that lane's stimulus — the packed
// worklist merely runs the union of all lanes' dirty sets.
func (p *PackedSim) settleLoop() int {
	iters := 0
	for {
		wl := p.takeDirty()
		if len(wl) == 0 {
			return iters
		}
		changed := p.waveEval(wl)
		iters++
		if len(changed) == 0 {
			return iters
		}
		for _, id := range changed {
			p.markNode(id)
		}
		if iters >= MaxIterations {
			// Oscillation cutoff, per lane: only the lanes still
			// changing in the final wave are oscillating; lanes that
			// converged earlier keep their values (their scalar twins
			// never hit the cap).
			for _, id := range changed {
				if !p.driven[id] {
					m := p.chMask[id]
					p.hi[id] |= m
					p.lo[id] |= m
					p.markNode(id)
				}
			}
			return iters
		}
	}
}

// takeDirty claims the dirty set as this wave's worklist, in ascending
// component order for deterministic evaluation.
func (p *PackedSim) takeDirty() []int {
	wl := p.wave[:0]
	for w, word := range p.dirty {
		for ; word != 0; word &= word - 1 {
			wl = append(wl, w<<6|bits.TrailingZeros64(word))
		}
		p.dirty[w] = 0
	}
	p.wave = wl
	return wl
}

// waveEval evaluates the components against the current planes, then
// applies all staged updates at once and returns the changed nodes.
// chMask records which lanes changed (for the oscillation cutoff).
func (p *PackedSim) waveEval(comps []int) []netlist.NodeID {
	p.compEvals += len(comps)
	p.pend = p.pend[:0]
	for _, ci := range comps {
		p.evalComp(ci)
	}
	changed := p.changed[:0]
	for _, pd := range p.pend {
		if p.hi[pd.id] != pd.hi || p.lo[pd.id] != pd.lo {
			p.chMask[pd.id] = (p.hi[pd.id] ^ pd.hi) | (p.lo[pd.id] ^ pd.lo)
			p.hi[pd.id], p.lo[pd.id] = pd.hi, pd.lo
			changed = append(changed, pd.id)
		}
	}
	p.changed = changed
	return changed
}

// evalComp recomputes the component's non-driven nodes across all 64
// lanes from the current planes and stages the differences. It is the
// word-parallel twin of the scalar evalComp: the same case analysis,
// with each scalar branch becoming a lane mask.
func (p *PackedSim) evalComp(ci int) {
	tab, cond, inner := p.table(ci)
	if len(tab) == 0 {
		return // isolated nodes just hold their charge, in every lane
	}
	nodes := p.compNodes[ci]
	for k := range tab {
		e := &tab[k]
		gh, gl := p.hi[e.gate], p.lo[e.gate]
		on := gh &^ gl
		if e.pmos {
			on = gl &^ gh
		}
		cond[k] = laneCond{on, on | gh&gl}
	}
	p.reachComp(ci)

	anyFloat := uint64(0)
	for _, nid := range nodes {
		id := int(nid)
		if p.driven[id] {
			p.floatMask[id] = 0
			continue
		}
		r := &p.reach[id]
		dv, ds, mv, ms := r.dv, r.ds, r.mv, r.ms
		curHi, curLo := p.hi[id], p.lo[id]

		// The scalar case ladder as disjoint lane masks. def ⊆ may on
		// each side, so the masks below partition all 64 lanes.
		fight := dv & ds
		strengthA := dv & ms &^ ds // definitely high, possibly also low
		strengthB := ds & mv &^ dv
		newHi := dv &^ ms // definite Hi, no opposing uncertainty
		newLo := ds &^ mv
		mayOnly := (mv | ms) &^ dv &^ ds
		holdHi := mayOnly & mv &^ ms & curHi &^ curLo
		holdLo := mayOnly & ms &^ mv & curLo &^ curHi
		xMask := mayOnly &^ holdHi &^ holdLo
		floatL := ^(mv | ms)

		newHi |= holdHi | xMask | floatL&curHi
		newLo |= holdLo | xMask | floatL&curLo
		p.floatMask[id] = floatL
		anyFloat |= floatL

		if special := fight | strengthA | strengthB; special != 0 {
			sh, sl := p.resolveSpecial(ci, nid, fight, strengthA, strengthB)
			newHi |= sh
			newLo |= sl
		}
		p.newHi[id], p.newLo[id] = newHi, newLo
	}

	// Charge sharing among floating lanes: word-parallel conflict
	// seeding plus island closure. A lane conflicts on a channel when
	// both endpoints float, the channel conducts (or may conduct) and
	// the stored values differ; the conflict then spreads X through
	// the lane's definitely-conducting floating island — exactly the
	// scalar mixed/degraded island rule, one word at a time. Rails
	// never float, so only member-to-member entries take part.
	if anyFloat != 0 {
		seeded := false
		for k := range inner {
			a, b := inner[k].a, inner[k].b
			fa, fb := p.floatMask[a], p.floatMask[b]
			if fa&fb == 0 {
				continue
			}
			diff := (p.hi[a] ^ p.hi[b]) | (p.lo[a] ^ p.lo[b])
			if conflict := fa & fb & diff & cond[k].may; conflict != 0 {
				p.badCharge[a] |= conflict
				p.badCharge[b] |= conflict
				seeded = true
			}
		}
		if seeded {
			for changed := true; changed; {
				changed = false
				for k := range inner {
					a, b := inner[k].a, inner[k].b
					m := cond[k].on & p.floatMask[a] & p.floatMask[b]
					if m == 0 {
						continue
					}
					if nb := p.badCharge[a] & m &^ p.badCharge[b]; nb != 0 {
						p.badCharge[b] |= nb
						changed = true
					}
					if nb := p.badCharge[b] & m &^ p.badCharge[a]; nb != 0 {
						p.badCharge[a] |= nb
						changed = true
					}
				}
			}
			for _, nid := range nodes {
				if bad := p.badCharge[nid]; bad != 0 {
					p.newHi[nid] |= bad
					p.newLo[nid] |= bad
					p.badCharge[nid] = 0
				}
			}
		}
	}

	// Stage differences.
	for _, nid := range nodes {
		id := int(nid)
		if !p.driven[id] && (p.newHi[id] != p.hi[id] || p.newLo[id] != p.lo[id]) {
			p.pend = append(p.pend, packedPending{nid, p.newHi[id], p.newLo[id]})
		}
	}
}

// reachComp computes, word-parallel, the rail reachability of every
// member in one fused fixpoint: the lane-mask closure of the scalar
// engine's four compReach passes (definite and possible, to vdd and to
// vss). A driven member's record holds its seed lanes, the lanes at
// each level (its X lanes count as possibly at both), and is never
// written: the driver pins the node, so reach received from elsewhere
// stops there. A rail entry's contribution cannot change during the
// fixpoint, so it is applied once and only member-to-member entries
// are iterated. The four systems do not interact, and a least
// fixpoint does not depend on visit order, so each lane gets exactly
// what four scalar passes give it.
func (p *PackedSim) reachComp(ci int) {
	tab, cond, inner := p.table(ci)
	reach, driven := p.reach, p.driven
	for _, nid := range p.compNodes[ci] {
		if driven[nid] {
			h, l := p.hi[nid], p.lo[nid]
			reach[nid] = reachRec{h &^ l, l &^ h, h, l}
		} else {
			reach[nid] = reachRec{}
		}
	}
	for k := len(inner); k < len(tab); k++ {
		a := tab[k].a
		if driven[a] {
			continue
		}
		if r := &reach[a]; tab[k].bVdd {
			r.dv |= cond[k].on
			r.mv |= cond[k].may
		} else {
			r.ds |= cond[k].on
			r.ms |= cond[k].may
		}
	}
	for changed := true; changed; {
		changed = false
		for k := range inner {
			c := cond[k]
			if c.may == 0 {
				continue
			}
			a, b := inner[k].a, inner[k].b
			ra, rb := reach[a], reach[b]
			if !driven[b] {
				nb := reachRec{rb.dv | ra.dv&c.on, rb.ds | ra.ds&c.on, rb.mv | ra.mv&c.may, rb.ms | ra.ms&c.may}
				if nb != rb {
					reach[b], rb = nb, nb
					changed = true
				}
			}
			if !driven[a] {
				na := reachRec{ra.dv | rb.dv&c.on, ra.ds | rb.ds&c.on, ra.mv | rb.mv&c.may, ra.ms | rb.ms&c.may}
				if na != ra {
					reach[a] = na
					changed = true
				}
			}
		}
	}
}

// sameBit returns the lanes whose bit in w equals lane l's.
func sameBit(w uint64, l uint) uint64 {
	return ^(w ^ -(w >> l & 1))
}

// resolveSpecial arbitrates the strength-dependent lanes of one node:
// rail fights and definite-vs-maybe contests. Strength is a widest-
// path computation over the lane's conduction pattern, so it cannot be
// a single word operation; instead the needed lanes are partitioned
// into classes with identical per-device conduction and identical
// driven-member values — every lane in a class provably resolves the
// same way — and each class pays for one scalar-equivalent strength
// relaxation, counted in strengthClasses. Symmetric stimulus (the
// common case) collapses to one or two classes.
func (p *PackedSim) resolveSpecial(ci int, id netlist.NodeID, fight, strengthA, strengthB uint64) (hi, lo uint64) {
	_, cond, _ := p.table(ci)
	nodes := p.compNodes[ci]
	need := fight | strengthA | strengthB
	for need != 0 {
		l := uint(bits.TrailingZeros64(need))
		class := need
		for _, c := range cond {
			class &= sameBit(c.on, l) & sameBit(c.may, l)
		}
		for _, nid := range nodes {
			if p.driven[nid] {
				class &= sameBit(p.hi[nid], l) & sameBit(p.lo[nid], l)
			}
		}
		p.strengthClasses++
		var v Value
		switch {
		case fight>>l&1 == 1:
			v = p.laneFight(ci, id, l)
		case strengthA>>l&1 == 1:
			hiS := p.laneStrength(ci, id, l, Hi, false)
			loS := p.laneStrength(ci, id, l, Lo, true)
			if hiS >= strengthRatio*loS {
				v = Hi
			} else {
				v = X
			}
		default:
			loS := p.laneStrength(ci, id, l, Lo, false)
			hiS := p.laneStrength(ci, id, l, Hi, true)
			if loS >= strengthRatio*hiS {
				v = Lo
			} else {
				v = X
			}
		}
		switch v {
		case Hi:
			hi |= class
		case Lo:
			lo |= class
		default:
			hi |= class
			lo |= class
		}
		need &^= class
	}
	return hi, lo
}

// laneFight is the scalar resolveFight in one lane.
func (p *PackedSim) laneFight(ci int, id netlist.NodeID, lane uint) Value {
	hi := p.laneStrength(ci, id, lane, Hi, false)
	lo := p.laneStrength(ci, id, lane, Lo, false)
	switch {
	case lo >= strengthRatio*hi && lo > 0:
		return Lo
	case hi >= strengthRatio*lo && hi > 0:
		return Hi
	default:
		return X
	}
}

// laneStrength is the scalar compStrength evaluated in one lane: the
// widest-path conductance from id to the side's rail (or any driven
// member at the side's level; driven X members join when
// includeMaybe). The seed classification matches the scalar call
// sites exactly: definite passes seed only the side's level,
// worst-case passes add X drivers. The opposing rail is pinned at zero
// and the side's rail is a constant source, so a rail entry is applied
// once and only member-to-member entries are relaxed.
func (p *PackedSim) laneStrength(ci int, id netlist.NodeID, lane uint, side Value, includeMaybe bool) float64 {
	const inf = 1e18
	tab, cond, inner := p.table(ci)
	str, blocked := p.strength, p.blocked
	for _, nid := range p.compNodes[ci] {
		str[nid], blocked[nid] = 0, false
		if !p.driven[nid] {
			continue
		}
		h, lw := p.hi[nid]>>lane&1 == 1, p.lo[nid]>>lane&1 == 1
		isSeed := false
		switch {
		case h && lw:
			isSeed = includeMaybe // X drivers only join worst-case passes
		case side == Hi:
			isSeed = h
		default:
			isSeed = lw
		}
		if isSeed {
			str[nid] = inf
		} else {
			blocked[nid] = true
		}
	}
	bit := uint64(1) << lane
	conducts := func(c laneCond) bool {
		if includeMaybe {
			return c.may&bit != 0
		}
		return c.on&bit != 0
	}
	for k := len(inner); k < len(tab); k++ {
		if e := &tab[k]; e.bVdd == (side == Hi) && conducts(cond[k]) && e.g > str[e.a] {
			str[e.a] = e.g
		}
	}
	for changed := true; changed; {
		changed = false
		for k := range inner {
			if !conducts(cond[k]) {
				continue
			}
			g, a, b := inner[k].g, inner[k].a, inner[k].b
			if !blocked[a] || str[a] == inf {
				if v := min2(str[a], g); v > str[b] {
					str[b] = v
					changed = true
				}
			}
			if !blocked[b] || str[b] == inf {
				if v := min2(str[b], g); v > str[a] {
					str[a] = v
					changed = true
				}
			}
		}
	}
	return str[id]
}

// SnapshotLane returns a name→value map of all non-supply nodes in one
// lane, for differential assertions against the scalar oracle.
func (p *PackedSim) SnapshotLane(lane int) map[string]Value {
	out := make(map[string]Value)
	for id, n := range p.c.Nodes {
		if !p.c.IsSupply(netlist.NodeID(id)) {
			out[n.Name] = p.GetLaneID(netlist.NodeID(id), lane)
		}
	}
	return out
}
