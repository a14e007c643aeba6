// Package switchsim is a switch-level simulator for transistor netlists.
//
// The paper's logic verification (§4.1) runs circuit-level simulation of
// full-custom logic whose behaviour no cell library defines; a
// switch-level model — transistors as gate-controlled switches with
// three-valued node states and charge retention on floating nodes — is
// the classic abstraction for that job (IRSIM lineage). It captures
// exactly the behaviours the paper's circuit styles rely on: precharged
// dynamic nodes that hold state while floating, transmission gates,
// ratioed fights, and the charge-sharing hazards of Figure 3.
//
// The simulator is a unit-delay relaxation engine: after each input
// change, node values are recomputed from rail-reachability through
// conducting channels until a fixed point; oscillation resolves to X.
// PackedSim (packed.go) is the engine, and every settle carries 64
// independent stimulus lanes. A caller simulating one vector drives all
// lanes alike with SetQuietAll and reads lane 0 with GetLane. The
// one-vector scalar engine lives in scalar_test.go as the oracle each
// packed lane is checked against.
package switchsim

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/process"
)

// Value is a three-valued logic level.
type Value int8

// The node values. X is both "unknown" and "invalid" (fight/oscillation).
const (
	Lo Value = iota
	Hi
	X
)

// String returns "0", "1" or "X".
func (v Value) String() string {
	switch v {
	case Lo:
		return "0"
	case Hi:
		return "1"
	default:
		return "X"
	}
}

// Bool converts a bool to a Value.
func Bool(b bool) Value {
	if b {
		return Hi
	}
	return Lo
}

// topology is the static structure of one flat circuit: the
// channel-connected component (CCC) partition, per-component devices
// and gate fanout. Each simulator derives its own: NewPacked (and the
// scalar test oracle's constructor) calls newTopology, and NewPacked
// then builds its flat device table on top, so two simulators over one
// circuit each pay for both. A simulator only reads its topology after
// construction.
type topology struct {
	c *netlist.Circuit
	// vdd/vss node ids (may be InvalidNode if absent).
	vdd, vss netlist.NodeID
	// comp maps each node to its channel-connected component (-1 for
	// supply rails, which belong to every component's boundary and
	// none's interior).
	comp      []int
	compNodes [][]netlist.NodeID
	compDevs  [][]*netlist.Device
	// gateComps lists, per node, the components containing a device the
	// node gates — the fanout cone one value change can disturb.
	gateComps [][]int
}

// newTopology partitions a flat circuit into its static simulation
// structure.
func newTopology(c *netlist.Circuit) (*topology, error) {
	if len(c.Instances) > 0 {
		return nil, fmt.Errorf("switchsim: circuit %s has unflattened instances", c.Name)
	}
	t := &topology{
		c:   c,
		vdd: c.FindNode(netlist.VddName),
		vss: c.FindNode(netlist.VssName),
	}
	t.buildComponents()
	return t, nil
}

// MaxIterations bounds relaxation; exceeding it marks changed nodes X.
const MaxIterations = 500

// buildComponents partitions non-supply nodes into channel-connected
// components (union-find over source/drain edges, cut at the rails) and
// indexes member devices and gate fanout per component.
func (s *topology) buildComponents() {
	c := s.c
	parent := make([]int, len(c.Nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, d := range c.Devices {
		if !c.IsSupply(d.Source) && !c.IsSupply(d.Drain) {
			union(int(d.Source), int(d.Drain))
		}
	}
	s.comp = make([]int, len(c.Nodes))
	idOfRoot := make(map[int]int)
	for i := range c.Nodes {
		nid := netlist.NodeID(i)
		if c.IsSupply(nid) {
			s.comp[i] = -1
			continue
		}
		root := find(i)
		ci, ok := idOfRoot[root]
		if !ok {
			ci = len(s.compNodes)
			idOfRoot[root] = ci
			s.compNodes = append(s.compNodes, nil)
			s.compDevs = append(s.compDevs, nil)
		}
		s.comp[i] = ci
		s.compNodes[ci] = append(s.compNodes[ci], nid)
	}
	s.gateComps = make([][]int, len(c.Nodes))
	for _, d := range c.Devices {
		t := d.Source
		if c.IsSupply(t) {
			t = d.Drain
		}
		if c.IsSupply(t) {
			continue // rail-to-rail device: can never affect a node value
		}
		ci := s.comp[t]
		s.compDevs[ci] = append(s.compDevs[ci], d)
		found := false
		for _, gc := range s.gateComps[d.Gate] {
			if gc == ci {
				found = true
				break
			}
		}
		if !found {
			s.gateComps[d.Gate] = append(s.gateComps[d.Gate], ci)
		}
	}
}

// conductance classifies a device's channel at current gate value.
type conductance int

const (
	off conductance = iota
	on
	maybe
)

// strengthRatio is the sizing margin at which one side of a fight is
// declared the winner: the checks package's writability analysis uses a
// comparable margin. Below it, the result is conservatively X.
const strengthRatio = 2.0

// conductanceOf returns a device's channel conductance proxy (W/Leff,
// derated for PMOS mobility).
func conductanceOf(d *netlist.Device) float64 {
	g := d.W / d.Leff()
	if d.Type == process.PMOS {
		g *= 0.4
	}
	return g
}

// min2 returns the smaller of two float64s.
func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
