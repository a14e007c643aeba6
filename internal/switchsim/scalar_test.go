package switchsim

// Scalar is the one-vector switch-level engine, kept only as the test
// oracle: the lane-equivalence suite in packed_test.go drives 64 of
// them beside one PackedSim, and worklist_test.go holds its Settle
// against the settleFull reference schedule. Its names are exported so
// the external switchsim_test package can reach them.

import (
	"slices"

	"repro/internal/netlist"
	"repro/internal/process"
)

// Scalar is a switch-level simulation instance over one flat circuit.
//
// Settling is organized around the circuit's channel-connected
// components (CCCs): node values depend only on the values/drives of
// their own component plus the gate values of its devices, so after an
// input change only the components in the change's fanout cone are
// re-evaluated (a dirty-component worklist). Cost scales with the cone,
// not the circuit size, while producing bit-identical results to the
// classic full-sweep relaxation (see settleFull and its regression
// tests).
type Scalar struct {
	*topology
	// adj indexes devices by channel terminal for traversal. Every
	// device on a non-supply node belongs to that node's component, so
	// component-local walks can use it unfiltered.
	adj *netlist.Adjacency
	// value is the current level of every node.
	value []Value
	// driven marks externally forced nodes (inputs, rails).
	driven []bool
	// steps counts relaxation iterations for reporting.
	steps int

	// Dirty-component worklist (deduplicated via the dirty flags).
	dirty     []bool
	dirtyList []int
	wave      []int

	// Scratch buffers reused across component evaluations.
	defVdd, defVss, mayVdd, mayVss []bool
	strength                       []float64
	blocked                        []bool
	queue                          []netlist.NodeID
	seedHi, seedLo, seedX          []netlist.NodeID
	pend                           []pendingVal
	changed                        []netlist.NodeID
	floating, island               []netlist.NodeID
	isFloat, seenFloat             []bool
}

// pendingVal stages one node update within a wave so every component is
// evaluated against the same pre-wave state (Jacobi semantics).
type pendingVal struct {
	id netlist.NodeID
	v  Value
}

// NewScalar builds a simulator for a flat circuit. All nodes start at X
// except the rails.
func NewScalar(c *netlist.Circuit) (*Scalar, error) {
	t, err := newTopology(c)
	if err != nil {
		return nil, err
	}
	s := &Scalar{
		topology: t,
		adj:      netlist.NewAdjacency(c),
		value:    make([]Value, len(c.Nodes)),
		driven:   make([]bool, len(c.Nodes)),
	}
	for i := range s.value {
		s.value[i] = X
	}
	if s.vdd != netlist.InvalidNode {
		s.value[s.vdd] = Hi
		s.driven[s.vdd] = true
	}
	if s.vss != netlist.InvalidNode {
		s.value[s.vss] = Lo
		s.driven[s.vss] = true
	}
	s.dirty = make([]bool, len(t.compDevs))
	s.defVdd = make([]bool, len(c.Nodes))
	s.defVss = make([]bool, len(c.Nodes))
	s.mayVdd = make([]bool, len(c.Nodes))
	s.mayVss = make([]bool, len(c.Nodes))
	s.strength = make([]float64, len(c.Nodes))
	s.blocked = make([]bool, len(c.Nodes))
	s.isFloat = make([]bool, len(c.Nodes))
	s.seenFloat = make([]bool, len(c.Nodes))
	// Everything starts dirty: the first Settle establishes the initial
	// fixed point exactly as a full sweep would.
	for ci := range s.compDevs {
		s.markComp(ci)
	}
	return s, nil
}

// markComp queues a component for re-evaluation.
func (s *Scalar) markComp(ci int) {
	if ci >= 0 && !s.dirty[ci] {
		s.dirty[ci] = true
		s.dirtyList = append(s.dirtyList, ci)
	}
}

// markNode queues everything a change on the node can disturb: its own
// component (channel effects) and every component it gates.
func (s *Scalar) markNode(id netlist.NodeID) {
	s.markComp(s.comp[id])
	for _, ci := range s.gateComps[id] {
		s.markComp(ci)
	}
}

// Set forces the named node to a value (an external drive) and relaxes
// the circuit. It returns the number of relaxation iterations.
func (s *Scalar) Set(name string, v Value) int {
	id := s.c.FindNode(name)
	if id == netlist.InvalidNode {
		return 0
	}
	s.value[id] = v
	s.driven[id] = true
	s.markNode(id)
	return s.Settle()
}

// SetQuiet forces a node without relaxing (for batching input changes).
func (s *Scalar) SetQuiet(name string, v Value) {
	id := s.c.FindNode(name)
	if id == netlist.InvalidNode {
		return
	}
	s.value[id] = v
	s.driven[id] = true
	s.markNode(id)
}

// Release removes the external drive from a node (it becomes a charged,
// possibly floating node) and relaxes.
func (s *Scalar) Release(name string) int {
	id := s.c.FindNode(name)
	if id == netlist.InvalidNode || s.c.IsSupply(id) {
		return 0
	}
	s.driven[id] = false
	s.markNode(id)
	return s.Settle()
}

// Get returns the current value of the named node (X for unknown names).
func (s *Scalar) Get(name string) Value {
	id := s.c.FindNode(name)
	if id == netlist.InvalidNode {
		return X
	}
	return s.value[id]
}

// GetID returns the value of a node by ID.
func (s *Scalar) GetID(id netlist.NodeID) Value { return s.value[id] }

// conducts returns the channel state of d given its gate's value.
func (s *Scalar) conducts(d *netlist.Device) conductance {
	g := s.value[d.Gate]
	if g == X {
		return maybe
	}
	if (d.Type == process.NMOS && g == Hi) || (d.Type == process.PMOS && g == Lo) {
		return on
	}
	return off
}

// Settle relaxes node values to a fixed point and returns the iteration
// count. Only the components marked dirty (by Set/Release and by value
// changes rippling through gate fanout) are re-evaluated each wave; the
// results are identical to a full sweep because a clean component is by
// definition already at its local fixed point. If MaxIterations is
// exceeded, the still-changing nodes are set to X (oscillation — e.g.
// an enabled ring).
func (s *Scalar) Settle() int {
	iters := 0
	for {
		wl := s.takeDirty()
		if len(wl) == 0 {
			break
		}
		changed := s.waveEval(wl)
		iters++
		if len(changed) == 0 {
			break
		}
		for _, id := range changed {
			s.markNode(id)
		}
		if iters >= MaxIterations {
			for _, id := range changed {
				if !s.driven[id] {
					s.value[id] = X
					s.markNode(id)
				}
			}
			break
		}
	}
	s.steps += iters
	return iters
}

// settleFull relaxes with every component evaluated every wave — the
// classic full-sweep (Jacobi) schedule the worklist replaced. It is the
// schedule-free reference: the worklist tests drive a Settle sim and a
// settleFull sim through identical stimulus and require identical
// states.
func (s *Scalar) settleFull() int {
	all := make([]int, len(s.compDevs))
	for i := range all {
		all[i] = i
	}
	// The full schedule subsumes any pending dirty marks.
	for _, ci := range s.dirtyList {
		s.dirty[ci] = false
	}
	s.dirtyList = s.dirtyList[:0]
	iters := 0
	for {
		changed := s.waveEval(all)
		iters++
		if len(changed) == 0 {
			s.steps += iters
			return iters
		}
		if iters >= MaxIterations {
			for _, id := range changed {
				if !s.driven[id] {
					s.value[id] = X
				}
			}
			s.steps += iters
			return iters
		}
	}
}

// takeDirty claims the current dirty set as this wave's worklist,
// sorted for deterministic evaluation order.
func (s *Scalar) takeDirty() []int {
	wl := append(s.wave[:0], s.dirtyList...)
	slices.Sort(wl)
	for _, ci := range s.dirtyList {
		s.dirty[ci] = false
	}
	s.dirtyList = s.dirtyList[:0]
	s.wave = wl
	return wl
}

// waveEval evaluates the given components against the current state,
// then applies all staged updates at once (so the wave behaves exactly
// like one Jacobi sweep restricted to those components) and returns the
// nodes whose value changed.
func (s *Scalar) waveEval(comps []int) []netlist.NodeID {
	s.pend = s.pend[:0]
	for _, ci := range comps {
		s.evalComp(ci)
	}
	changed := s.changed[:0]
	for _, p := range s.pend {
		if s.value[p.id] != p.v {
			s.value[p.id] = p.v
			changed = append(changed, p.id)
		}
	}
	s.changed = changed
	return changed
}

// evalComp recomputes the component's non-driven nodes from the current
// state and stages the differences. The evaluation is a pure function
// of the component's member values/drives and the gate values of its
// devices — the invariant the dirty-marking in markNode relies on.
func (s *Scalar) evalComp(ci int) {
	nodes := s.compNodes[ci]
	devs := s.compDevs[ci]
	if len(devs) == 0 {
		return // isolated nodes just hold their charge
	}
	// Drive-source seeds local to this component. Externally driven
	// members are drive sources just like the rails: a high input
	// propagates through pass structures exactly as vdd does.
	seedHi, seedLo, seedX := s.seedHi[:0], s.seedLo[:0], s.seedX[:0]
	for _, nid := range nodes {
		if !s.driven[nid] {
			continue
		}
		switch s.value[nid] {
		case Hi:
			seedHi = append(seedHi, nid)
		case Lo:
			seedLo = append(seedLo, nid)
		default:
			seedX = append(seedX, nid)
		}
	}
	s.seedHi, s.seedLo, s.seedX = seedHi, seedLo, seedX

	// Rail reachability under definite conduction and under
	// maybe-conduction (definite ∪ maybe), restricted to the component.
	s.compReach(s.defVdd, devs, s.vdd, seedHi, nil, false)
	s.compReach(s.defVss, devs, s.vss, seedLo, nil, false)
	s.compReach(s.mayVdd, devs, s.vdd, seedHi, seedX, true)
	s.compReach(s.mayVss, devs, s.vss, seedLo, seedX, true)

	floating := s.floating[:0]
	for _, nid := range nodes {
		id := int(nid)
		if s.driven[id] {
			continue
		}
		var nv Value
		switch {
		case s.defVdd[id] && s.defVss[id]:
			// A fight. Ratioed logic (pseudo-NMOS, keepers vs. write
			// drivers) is *designed* to fight, with the intended winner
			// sized decisively stronger; resolve by path strength.
			nv = s.resolveFight(ci, nid, seedHi, seedLo)
		case s.defVdd[id] && !s.mayVss[id]:
			nv = Hi
		case s.defVss[id] && !s.mayVdd[id]:
			nv = Lo
		case s.defVdd[id] && s.mayVss[id]:
			// Definitely pulled high, possibly also pulled low. If the
			// definite high side beats the worst-case (fully
			// conducting) low side by the sizing ratio, the level is
			// resolved regardless of the uncertainty — this is what
			// lets sized structures (DCVSL, keepers) escape X-lock.
			hi := s.compStrength(ci, nid, s.vdd, seedHi, nil, false)
			lo := s.compStrength(ci, nid, s.vss, seedLo, seedX, true)
			if hi >= strengthRatio*lo {
				nv = Hi
			} else {
				nv = X
			}
		case s.defVss[id] && s.mayVdd[id]:
			lo := s.compStrength(ci, nid, s.vss, seedLo, nil, false)
			hi := s.compStrength(ci, nid, s.vdd, seedHi, seedX, true)
			if lo >= strengthRatio*hi {
				nv = Lo
			} else {
				nv = X
			}
		case s.mayVdd[id] || s.mayVss[id]:
			// Some uncertain drive: conservatively unknown, unless the
			// only uncertainty agrees with one rail and excludes the
			// other entirely (possibly pulled to the value already
			// held: keep it).
			switch {
			case s.mayVdd[id] && !s.mayVss[id] && s.value[id] == Hi:
				nv = Hi
			case s.mayVss[id] && !s.mayVdd[id] && s.value[id] == Lo:
				nv = Lo
			default:
				nv = X
			}
		default:
			floating = append(floating, nid)
			continue
		}
		if nv != s.value[id] {
			s.pend = append(s.pend, pendingVal{nid, nv})
		}
	}

	// Charge sharing among floating nodes: nodes joined by definitely
	// conducting channels share charge. Conservative resolution: if the
	// island holds mixed values, the island goes X; a maybe-conducting
	// bridge to a different value also degrades to X (Figure 3's charge
	// share hazard). Capacitance-weighted resolution is the checks
	// package's refinement; simulation stays conservative. Islands
	// never cross component boundaries (they are channel-connected).
	if len(floating) > 0 {
		isFloating, seen := s.isFloat, s.seenFloat
		for _, id := range floating {
			isFloating[id] = true
		}
		for _, start := range floating {
			if seen[start] {
				continue
			}
			island := append(s.island[:0], start)
			seen[start] = true
			mixed := false
			degraded := false
			v := s.value[start]
			for i := 0; i < len(island); i++ {
				at := island[i]
				for _, d := range s.adj.Channel(at) {
					other := d.Source
					if other == at {
						other = d.Drain
					}
					switch s.conducts(d) {
					case on:
						if isFloating[other] && !seen[other] {
							seen[other] = true
							island = append(island, other)
							if s.value[other] != v {
								mixed = true
							}
						}
					case maybe:
						if isFloating[other] && s.value[other] != v {
							degraded = true
						}
					}
				}
			}
			if mixed || degraded {
				for _, id := range island {
					if s.value[id] != X {
						s.pend = append(s.pend, pendingVal{id, X})
					}
				}
			}
			s.island = island
			// Otherwise the island retains its stored charge.
		}
		for _, id := range floating {
			isFloating[id] = false
			seen[id] = false
		}
	}
	s.floating = floating

	// Reset the reach scratch for the next component (rails are never
	// marked; only members were).
	for _, nid := range nodes {
		s.defVdd[nid] = false
		s.defVss[nid] = false
		s.mayVdd[nid] = false
		s.mayVss[nid] = false
	}
}

// compReach marks (in out) the component members with a conducting path
// from the rail or any seed. If includeMaybe, maybe-conducting devices
// are traversable. Propagation does not continue *through* an
// externally driven node: the driver pins it, and the driven node is
// itself a seed of its own value. The rail is expanded through the
// component's own devices so shared-rail fanout costs nothing.
func (s *Scalar) compReach(out []bool, devs []*netlist.Device, rail netlist.NodeID, seeds, extra []netlist.NodeID, includeMaybe bool) {
	q := s.queue[:0]
	for _, r := range seeds {
		if !out[r] {
			out[r] = true
			q = append(q, r)
		}
	}
	for _, r := range extra {
		if !out[r] {
			out[r] = true
			q = append(q, r)
		}
	}
	if rail != netlist.InvalidNode {
		for _, d := range devs {
			if d.Source != rail && d.Drain != rail {
				continue
			}
			cd := s.conducts(d)
			if cd == off || (cd == maybe && !includeMaybe) {
				continue
			}
			other := d.Source
			if other == rail {
				other = d.Drain
			}
			if out[other] || s.c.IsSupply(other) {
				continue
			}
			out[other] = true
			if !s.driven[other] {
				q = append(q, other)
			}
		}
	}
	for len(q) > 0 {
		at := q[len(q)-1]
		q = q[:len(q)-1]
		for _, d := range s.adj.Channel(at) {
			cd := s.conducts(d)
			if cd == off || (cd == maybe && !includeMaybe) {
				continue
			}
			other := d.Source
			if other == at {
				other = d.Drain
			}
			if out[other] || s.c.IsSupply(other) {
				continue
			}
			out[other] = true
			if !s.driven[other] {
				q = append(q, other)
			}
		}
	}
	s.queue = q[:0]
}

// resolveFight decides a node connected to both rails at once. Each
// side's strength is the widest-path conductance (max over paths of the
// minimum device conductance along the path) from the node to that
// side's seeds through definitely-conducting devices.
func (s *Scalar) resolveFight(ci int, id netlist.NodeID, seedHi, seedLo []netlist.NodeID) Value {
	hi := s.compStrength(ci, id, s.vdd, seedHi, nil, false)
	lo := s.compStrength(ci, id, s.vss, seedLo, nil, false)
	switch {
	case lo >= strengthRatio*hi && lo > 0:
		return Lo
	case hi >= strengthRatio*lo && hi > 0:
		return Hi
	default:
		return X
	}
}

// compStrength computes the widest-path strength from id to the rail or
// any seed via conducting devices within one component, by fixpoint
// relaxation (the graphs are small; simplicity beats a heap here). With
// includeMaybe, maybe-conducting devices count as fully conducting (a
// worst-case bound). A channel path cannot leave the component except
// through a rail, and strength never crosses the opposing (blocked)
// rail, so the restriction to compDevs is exact.
func (s *Scalar) compStrength(ci int, id, rail netlist.NodeID, seeds, extra []netlist.NodeID, includeMaybe bool) float64 {
	const inf = 1e18
	str, blocked := s.strength, s.blocked
	nodes := s.compNodes[ci]
	devs := s.compDevs[ci]
	// Strength never propagates *through* a pinned node (a rail or an
	// externally driven input) unless that node is a seed of this side.
	for _, nid := range nodes {
		str[nid] = 0
		blocked[nid] = s.driven[nid]
	}
	for _, r := range []netlist.NodeID{s.vdd, s.vss} {
		if r != netlist.InvalidNode {
			str[r] = 0
			blocked[r] = true
		}
	}
	if rail != netlist.InvalidNode {
		str[rail] = inf
		blocked[rail] = false
	}
	for _, r := range seeds {
		str[r] = inf
		blocked[r] = false
	}
	for _, r := range extra {
		str[r] = inf
		blocked[r] = false
	}
	for changed := true; changed; {
		changed = false
		for _, d := range devs {
			c := s.conducts(d)
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

// Steps returns the cumulative relaxation iterations.
func (s *Scalar) Steps() int { return s.steps }

// Snapshot returns a name→value map of all non-supply nodes.
func (s *Scalar) Snapshot() map[string]Value {
	out := make(map[string]Value)
	for id, n := range s.c.Nodes {
		if !s.c.IsSupply(netlist.NodeID(id)) {
			out[n.Name] = s.value[id]
		}
	}
	return out
}
