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
// sharing) run word-parallel; only strength arbitration — rare, and
// dependent on per-lane conduction topology — falls back to per-lane
// evaluation, batched over lane classes with identical conduction
// patterns so symmetric lanes still pay once.

import (
	"math/bits"
	"sort"

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

	steps     int
	compEvals int
	obs       *obs.Collector

	// Dirty-component worklist (mirrors the scalar oracle's).
	dirty     []bool
	dirtyList []int
	wave      []int

	// Scratch planes reused across component evaluations, all indexed
	// by node and reset per component.
	defVdd, defVss, mayVdd, mayVss []uint64
	newHi, newLo                   []uint64
	floatMask, badCharge           []uint64
	chMask                         []uint64
	pend                           []packedPending
	changed                        []netlist.NodeID
	// Per-lane strength fallback scratch.
	strength []float64
	blocked  []bool
}

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
		dirty:     make([]bool, len(t.compDevs)),
		defVdd:    make([]uint64, n),
		defVss:    make([]uint64, n),
		mayVdd:    make([]uint64, n),
		mayVss:    make([]uint64, n),
		newHi:     make([]uint64, n),
		newLo:     make([]uint64, n),
		floatMask: make([]uint64, n),
		badCharge: make([]uint64, n),
		chMask:    make([]uint64, n),
		strength:  make([]float64, n),
		blocked:   make([]bool, n),
	}
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

// markComp queues a component for re-evaluation.
func (p *PackedSim) markComp(ci int) {
	if ci >= 0 && !p.dirty[ci] {
		p.dirty[ci] = true
		p.dirtyList = append(p.dirtyList, ci)
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
// switchsim.packed_settles and switchsim.lane_evals counters and keeps
// the switchsim.lanes gauge at the lane width. A nil collector
// detaches.
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
	prevEvals := p.compEvals
	iters := p.settleLoop()
	p.steps += iters
	if p.obs != nil {
		p.obs.Add("switchsim.packed_settles", 1)
		p.obs.Add("switchsim.lane_evals", int64(p.compEvals-prevEvals)*Lanes)
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

// takeDirty claims the dirty set as this wave's worklist, sorted for
// deterministic evaluation order.
func (p *PackedSim) takeDirty() []int {
	wl := append(p.wave[:0], p.dirtyList...)
	sort.Ints(wl)
	for _, ci := range p.dirtyList {
		p.dirty[ci] = false
	}
	p.dirtyList = p.dirtyList[:0]
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

// condOn returns the lanes in which the device's channel definitely
// conducts (gate definitely at the on level).
func (p *PackedSim) condOn(d *netlist.Device) uint64 {
	gh, gl := p.hi[d.Gate], p.lo[d.Gate]
	if d.Type == process.NMOS {
		return gh &^ gl
	}
	return gl &^ gh
}

// condMaybe returns the lanes in which the channel may conduct (gate
// at X).
func (p *PackedSim) condMaybe(d *netlist.Device) uint64 {
	return p.hi[d.Gate] & p.lo[d.Gate]
}

// seedMask returns the lanes a driven node seeds for one rail's
// reachability: its definitely-at-that-level lanes, plus its X lanes
// when includeMaybe (the scalar compReach's seeds/extra split).
func (p *PackedSim) seedMask(id netlist.NodeID, side Value, includeMaybe bool) uint64 {
	if side == Hi {
		if includeMaybe {
			return p.hi[id]
		}
		return p.hi[id] &^ p.lo[id]
	}
	if includeMaybe {
		return p.lo[id]
	}
	return p.lo[id] &^ p.hi[id]
}

// propMask returns the lanes a node propagates during reachability:
// rails propagate everything on their own side, driven nodes only
// their seed lanes (the driver pins them — reach bits received from
// elsewhere stop there), free nodes whatever has reached them.
func (p *PackedSim) propMask(id, rail netlist.NodeID, side Value, includeMaybe bool, out []uint64) uint64 {
	if p.c.IsSupply(id) {
		if id == rail {
			return allLanes
		}
		return 0
	}
	if p.driven[id] {
		return p.seedMask(id, side, includeMaybe)
	}
	return out[id]
}

// reach computes, word-parallel, the per-lane rail reachability of the
// component's members: out[n] gets the lanes in which n has a
// conducting path (definite, or definite∪maybe when includeMaybe)
// from the rail or from any driven member at the rail's level. It is
// the lane-mask fixpoint closure of the scalar compReach BFS.
func (p *PackedSim) reach(out []uint64, ci int, rail netlist.NodeID, side Value, includeMaybe bool) {
	devs := p.compDevs[ci]
	for changed := true; changed; {
		changed = false
		for _, d := range devs {
			m := p.condOn(d)
			if includeMaybe {
				m |= p.condMaybe(d)
			}
			if m == 0 {
				continue
			}
			a, b := d.Source, d.Drain
			if !p.c.IsSupply(b) {
				if nb := p.propMask(a, rail, side, includeMaybe, out) & m &^ out[b]; nb != 0 {
					out[b] |= nb
					changed = true
				}
			}
			if !p.c.IsSupply(a) {
				if nb := p.propMask(b, rail, side, includeMaybe, out) & m &^ out[a]; nb != 0 {
					out[a] |= nb
					changed = true
				}
			}
		}
	}
}

// evalComp recomputes the component's non-driven nodes across all 64
// lanes from the current planes and stages the differences. It is the
// word-parallel twin of the scalar evalComp: the same case analysis,
// with each scalar branch becoming a lane mask.
func (p *PackedSim) evalComp(ci int) {
	nodes := p.compNodes[ci]
	devs := p.compDevs[ci]
	if len(devs) == 0 {
		return // isolated nodes just hold their charge, in every lane
	}

	p.reach(p.defVdd, ci, p.vdd, Hi, false)
	p.reach(p.defVss, ci, p.vss, Lo, false)
	p.reach(p.mayVdd, ci, p.vdd, Hi, true)
	p.reach(p.mayVss, ci, p.vss, Lo, true)

	anyFloat := uint64(0)
	for _, nid := range nodes {
		id := int(nid)
		if p.driven[id] {
			continue
		}
		dv, ds := p.defVdd[id], p.defVss[id]
		mv, ms := p.mayVdd[id], p.mayVss[id]
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
	// scalar mixed/degraded island rule, one word at a time.
	if anyFloat != 0 {
		seeded := false
		for _, d := range devs {
			a, b := d.Source, d.Drain
			if a == b {
				continue
			}
			fa, fb := p.floatMask[a], p.floatMask[b]
			if fa&fb == 0 {
				continue
			}
			diff := (p.hi[a] ^ p.hi[b]) | (p.lo[a] ^ p.lo[b])
			conflict := fa & fb & diff & (p.condOn(d) | p.condMaybe(d))
			if conflict != 0 {
				p.badCharge[a] |= conflict
				p.badCharge[b] |= conflict
				seeded = true
			}
		}
		if seeded {
			for changed := true; changed; {
				changed = false
				for _, d := range devs {
					a, b := d.Source, d.Drain
					if a == b {
						continue
					}
					m := p.condOn(d) & p.floatMask[a] & p.floatMask[b]
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
				}
			}
		}
	}

	// Stage differences and reset the per-component scratch planes
	// (supplies were never written; only members were).
	for _, nid := range nodes {
		id := int(nid)
		if !p.driven[id] && (p.newHi[id] != p.hi[id] || p.newLo[id] != p.lo[id]) {
			p.pend = append(p.pend, packedPending{nid, p.newHi[id], p.newLo[id]})
		}
		p.defVdd[id] = 0
		p.defVss[id] = 0
		p.mayVdd[id] = 0
		p.mayVss[id] = 0
		p.floatMask[id] = 0
		p.badCharge[id] = 0
	}
}

// resolveSpecial arbitrates the strength-dependent lanes of one node:
// rail fights and definite-vs-maybe contests. Strength is a widest-
// path computation over the lane's conduction pattern, so it cannot be
// a single word operation; instead the needed lanes are partitioned
// into classes with identical per-device conduction and identical
// driven-member values — every lane in a class provably resolves the
// same way — and each class pays for one scalar-equivalent strength
// relaxation. Symmetric stimulus (the common case) collapses to one or
// two classes.
func (p *PackedSim) resolveSpecial(ci int, id netlist.NodeID, fight, strengthA, strengthB uint64) (hi, lo uint64) {
	need := fight | strengthA | strengthB
	devs := p.compDevs[ci]
	nodes := p.compNodes[ci]
	for need != 0 {
		l := bits.TrailingZeros64(need)
		class := need
		for _, d := range devs {
			on, mb := p.condOn(d), p.condMaybe(d)
			if on>>uint(l)&1 == 1 {
				class &= on
			} else {
				class &= ^on
			}
			if mb>>uint(l)&1 == 1 {
				class &= mb
			} else {
				class &= ^mb
			}
		}
		for _, nid := range nodes {
			if !p.driven[nid] {
				continue
			}
			h, lw := p.hi[nid], p.lo[nid]
			if h>>uint(l)&1 == 1 {
				class &= h
			} else {
				class &= ^h
			}
			if lw>>uint(l)&1 == 1 {
				class &= lw
			} else {
				class &= ^lw
			}
		}
		var v Value
		switch {
		case fight>>uint(l)&1 == 1:
			v = p.laneFight(ci, id, l)
		case strengthA>>uint(l)&1 == 1:
			hiS := p.laneStrength(ci, id, p.vdd, l, Hi, false)
			loS := p.laneStrength(ci, id, p.vss, l, Lo, true)
			if hiS >= strengthRatio*loS {
				v = Hi
			} else {
				v = X
			}
		default:
			loS := p.laneStrength(ci, id, p.vss, l, Lo, false)
			hiS := p.laneStrength(ci, id, p.vdd, l, Hi, true)
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

// laneConducts is the scalar conducts() evaluated in one lane.
func (p *PackedSim) laneConducts(d *netlist.Device, lane int) conductance {
	bit := uint64(1) << uint(lane)
	gh, gl := p.hi[d.Gate]&bit != 0, p.lo[d.Gate]&bit != 0
	if gh && gl {
		return maybe
	}
	if (d.Type == process.NMOS && gh) || (d.Type == process.PMOS && gl) {
		return on
	}
	return off
}

// laneFight is the scalar resolveFight in one lane.
func (p *PackedSim) laneFight(ci int, id netlist.NodeID, lane int) Value {
	hi := p.laneStrength(ci, id, p.vdd, lane, Hi, false)
	lo := p.laneStrength(ci, id, p.vss, lane, Lo, false)
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
// widest-path conductance from id to the rail (or any driven member at
// the rail's level; driven X members join when includeMaybe). The seed
// classification matches the scalar call sites exactly: definite
// passes seed only the side's level, worst-case passes add X drivers.
func (p *PackedSim) laneStrength(ci int, id, rail netlist.NodeID, lane int, side Value, includeMaybe bool) float64 {
	const inf = 1e18
	bit := uint64(1) << uint(lane)
	str, blocked := p.strength, p.blocked
	nodes := p.compNodes[ci]
	devs := p.compDevs[ci]
	for _, nid := range nodes {
		str[nid] = 0
		blocked[nid] = p.driven[nid]
	}
	for _, r := range []netlist.NodeID{p.vdd, p.vss} {
		if r != netlist.InvalidNode {
			str[r] = 0
			blocked[r] = true
		}
	}
	if rail != netlist.InvalidNode {
		str[rail] = inf
		blocked[rail] = false
	}
	for _, nid := range nodes {
		if !p.driven[nid] {
			continue
		}
		h, lw := p.hi[nid]&bit != 0, p.lo[nid]&bit != 0
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
			blocked[nid] = false
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range devs {
			c := p.laneConducts(d, lane)
			if c == off || (c == maybe && !includeMaybe) {
				continue
			}
			g := conductanceOf(d)
			a, b := d.Source, d.Drain
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
