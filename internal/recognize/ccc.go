package recognize

import (
	"sort"
	"strings"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/process"
)

// buildGroups partitions devices into channel-connected components using
// union-find over source/drain terminals, cutting at the supply rails
// (a rail connects everything; it is a boundary, not a bridge). adj is
// the circuit's adjacency index.
func (r *Result) buildGroups(adj *netlist.Adjacency) {
	c := r.Circuit
	nd := len(c.Devices)
	parent := make([]int, nd)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	// Group devices sharing a non-supply source/drain node. Per node it
	// suffices to union every later device into the first one seen, so a
	// first-device-per-node array replaces the node→devices multimap.
	firstDev := make([]int32, len(c.Nodes))
	for i := range firstDev {
		firstDev[i] = -1
	}
	joinAt := func(t netlist.NodeID, dev int) {
		if c.IsSupply(t) {
			return
		}
		if firstDev[t] < 0 {
			firstDev[t] = int32(dev)
		} else {
			union(int(firstDev[t]), dev)
		}
	}
	for i, d := range c.Devices {
		joinAt(d.Source, i)
		joinAt(d.Drain, i)
	}

	// Materialize groups in first-device order for determinism. Roots
	// are device indices, so a dense array replaces the root→group map.
	groupIdx := make([]int32, nd)
	for i := range groupIdx {
		groupIdx[i] = -1
	}
	r.GroupOfDevice = make([]int, nd)
	for i, d := range c.Devices {
		root := find(i)
		gi := groupIdx[root]
		if gi < 0 {
			gi = int32(len(r.Groups))
			groupIdx[root] = gi
			r.Groups = append(r.Groups, &Group{Index: int(gi)})
		}
		r.GroupOfDevice[i] = int(gi)
		r.Groups[gi].Devices = append(r.Groups[gi].Devices, d)
	}

	// Classify each group's channel nodes as internal or output, and
	// collect gate inputs. Group-stamped marker arrays replace the
	// per-group node sets; the node lists are deduped in device order
	// and sorted below, so iteration order stays canonical.
	chanMark := make([]int32, len(c.Nodes))
	gateMark := make([]int32, len(c.Nodes))
	for i := range chanMark {
		chanMark[i] = -1
		gateMark[i] = -1
	}
	var chanList, gateList []netlist.NodeID
	for gi, g := range r.Groups {
		chanList = chanList[:0]
		gateList = gateList[:0]
		stamp := int32(gi)
		for _, d := range g.Devices {
			for _, t := range [2]netlist.NodeID{d.Source, d.Drain} {
				if !c.IsSupply(t) && chanMark[t] != stamp {
					chanMark[t] = stamp
					chanList = append(chanList, t)
				}
			}
			if !c.IsSupply(d.Gate) && gateMark[d.Gate] != stamp {
				gateMark[d.Gate] = stamp
				gateList = append(gateList, d.Gate)
			}
		}
		// A node read as a gate anywhere is an output. (Group identity
		// is irrelevant: a channel node read as a gate only by its own
		// group is feedback, still an output.)
		for _, id := range chanList {
			n := c.Nodes[id]
			if n.IsPort || len(adj.Gated(id)) > 0 {
				g.Outputs = append(g.Outputs, id)
				r.DriverOf[id] = gi
			} else {
				g.Internal = append(g.Internal, id)
			}
		}
		for _, id := range gateList {
			// A gate net is an input unless this group itself drives
			// it through its channel (self-feedback).
			if chanMark[id] != stamp {
				g.Inputs = append(g.Inputs, id)
			}
		}
		sortNodes(g.Outputs)
		sortNodes(g.Internal)
		sortNodes(g.Inputs)
	}

	// Channel inputs: ports used as source/drain that something else
	// drives, or that are circuit inputs — signals passing through the
	// group rather than being generated by it. A channel node is a
	// channel input if it is a port that is not exclusively driven here
	// (conservatively: any port that also appears as an input
	// elsewhere, or is a declared port with external drive unknown).
	for _, g := range r.Groups {
		for _, id := range g.Outputs {
			n := c.Nodes[id]
			if n.IsPort && looksLikeInputPort(c, adj, id) {
				g.ChannelInputs = append(g.ChannelInputs, id)
			}
		}
	}
}

// looksLikeInputPort reports whether a port node plausibly carries an
// externally-driven signal into the circuit: it is never the *only*
// drive candidate — conservative recognition treats a port touched only
// by pass structures as an input. Heuristic: the port is a channel input
// if no device in the circuit has it as the sole non-rail channel node
// of a complementary (vdd+vss) structure. We approximate: a port is an
// input if every device touching it via channel also has its other
// channel terminal on a non-rail node.
func looksLikeInputPort(c *netlist.Circuit, adj *netlist.Adjacency, id netlist.NodeID) bool {
	for _, d := range adj.Channel(id) {
		other := d.Source
		if other == id {
			other = d.Drain
		}
		if c.IsSupply(other) {
			return false // something drives this port from a rail
		}
	}
	return true
}

// identifyClocks returns clock nets known without circuit analysis:
// designer annotation ("clock" node attribute, which survives
// extraction) and conventional naming (phi*, clk*, ck*). Functional
// inference of unnamed domino clocks happens in inferDominoClocks once
// conduction functions exist. §4.3: "The automatic recognition of
// state-elements, clocking nodes, glitch sensitive nodes, and data
// nodes is essential."
func (r *Result) identifyClocks() map[netlist.NodeID]bool {
	c := r.Circuit
	clocks := make(map[netlist.NodeID]bool)
	for id, n := range c.Nodes {
		if n.HasAttr("clock") || clockName(n.Name) {
			clocks[netlist.NodeID(id)] = true
		}
	}
	return clocks
}

// drivenInternally reports whether a node is driven by some group's
// channel network (clock inference only trusts primary inputs — an
// internally generated signal gating a PMOS from vdd is ordinary logic).
func drivenInternally(r *Result, id netlist.NodeID) bool {
	_, ok := r.DriverOf[id]
	return ok
}

// clockName reports whether a node name follows clock conventions.
func clockName(name string) bool {
	base := name
	if i := strings.LastIndex(name, "/"); i >= 0 {
		base = name[i+1:]
	}
	lower := strings.ToLower(base)
	for _, p := range []string{"phi", "clk", "ck_", "clock"} {
		if strings.HasPrefix(lower, p) {
			return true
		}
	}
	return lower == "ck"
}

// GroupsByFamily returns group indices of a family, sorted.
func (r *Result) GroupsByFamily(f Family) []int {
	var out []int
	for i, g := range r.Groups {
		if g.Family == f {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// inferDominoClocks finds unnamed precharge clocks from the deduced
// conduction functions. A net v is a domino clock of a group output when:
//
//   - the output is not complementary (it is not a static gate),
//   - forcing v on removes the entire pull-up except, at most, keeper
//     feedback through the group's own outputs (in pure domino the
//     pull-up collapses to false; with a keeper it collapses to the
//     keeper's feedback literal),
//   - the pull-down is footed by v (v appears in the evaluate tree), and
//   - v is a primary input (an internally generated "clock" candidate is
//     ordinary logic until a designer names it).
//
// This functional test rejects the structural look-alikes that defeat
// simpler pattern matching: NAND bottom inputs, tri-state enables and
// inverters are all complementary or lack the footed pull-down.
func (r *Result) inferDominoClocks(known map[netlist.NodeID]bool, bdds []groupBDD) map[netlist.NodeID]bool {
	c := r.Circuit
	inferred := make(map[netlist.NodeID]bool)
	for gi, g := range r.Groups {
		gb := &bdds[gi]
		for i, f := range g.Funcs {
			if f.Complementary {
				continue
			}
			downVars := make(map[string]bool)
			for _, v := range logic.Vars(f.PullDown) {
				downVars[v] = true
			}
			for _, v := range logic.Vars(f.PullUp) {
				id := c.FindNode(v)
				if id == netlist.InvalidNode || known[id] || inferred[id] {
					continue
				}
				if drivenInternally(r, id) || !downVars[v] {
					continue
				}
				// The candidate must gate a direct precharge device — a
				// PMOS from vdd onto this output, the same structure
				// isDynamic demands. Without this, a C²MOS stage's data
				// input looks clock-like too (forcing it on also kills
				// the pull-up), and misreading data as clock poisons
				// every phase-aware analysis downstream.
				if !gatesPrecharge(c, g, id, f.Node) {
					continue
				}
				// The residue must be false or keeper-only. Its
				// satisfiability is answered on the ref; the keeper
				// test reads the expression's variables.
				if gb.restrict(c, gb.refs[i].up, v, true) != logic.RefFalse &&
					!r.keeperOnly(logic.Substitute(f.PullUp, v, logic.True)) {
					continue
				}
				inferred[id] = true
			}
		}
	}
	return inferred
}

// gatesPrecharge reports whether the net gates a PMOS connecting vdd
// directly to the output node — the domino precharge structure.
func gatesPrecharge(c *netlist.Circuit, g *Group, gate, node netlist.NodeID) bool {
	for _, d := range g.Devices {
		if d.Type == process.PMOS && d.Gate == gate &&
			(c.IsVdd(d.Source) || c.IsVdd(d.Drain)) &&
			(d.Source == node || d.Drain == node) {
			return true
		}
	}
	return false
}

// keeperOnly reports that an expression mentions only internally
// generated nets — keeper feedback arrives through the domino output
// buffer or the group's own outputs, never from a primary input.
// (Static look-alikes whose residues mention internal nets are already
// eliminated by the complementary test upstream.)
func (r *Result) keeperOnly(e logic.Expr) bool {
	for _, v := range logic.Vars(e) {
		id := r.Circuit.FindNode(v)
		if id == netlist.InvalidNode || !drivenInternally(r, id) {
			return false
		}
	}
	return true
}
