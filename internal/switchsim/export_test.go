package switchsim

import "repro/internal/netlist"

// Drive, release and counter accessors of PackedSim that only tests use.

// SetLanes forces per-lane values and relaxes, returning the iteration
// count. The hi word carries the lanes to drive high; lanes set in
// both words are X, lanes set in neither are X.
func (p *PackedSim) SetLanes(name string, hi, lo uint64) int {
	p.SetQuietLanes(name, hi, lo)
	return p.Settle()
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

// Steps returns the cumulative relaxation iterations.
func (p *PackedSim) Steps() int { return p.steps }

// CompEvals returns the cumulative component evaluations; each one
// covered all 64 lanes.
func (p *PackedSim) CompEvals() int { return p.compEvals }

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
