// Subcell verification scopes and boundary composition.
//
// Hierarchical incremental verification (internal/fleet.VerifyHier)
// verifies each cell of a hierarchy once, in isolation, and composes
// parent results from child verdicts. Isolation needs two things this
// file provides:
//
//   - ScopeCircuit: the verification unit for one cell — its own
//     devices, resistors and nodes with child instances removed and
//     every instance-connection net promoted to a port, so the core
//     pipeline sees child-driven nets as externally driven interfaces
//     rather than floating internals.
//   - Interfaces and boundary checks: what subcell isolation cannot
//     see is interactions *across* instance boundaries. CellInterface
//     classifies each port of a cell (does the cell drive it, expose a
//     channel on it, load a gate with it), composed bottom-up from
//     local structure plus child interfaces via internal/dataflow
//     conduction analysis. BoundaryFindings then checks every parent
//     net for port-crossing drive fights and cross-boundary charge
//     sharing — the two failure modes flattening would have caught.
package hier

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// ScopeCircuit builds the isolated verification unit for one cell: a
// copy of its local nodes, devices and resistors (instances dropped)
// in which every non-supply net bound to a child instance is promoted
// to a port. Node names, attributes, wire loads and element Locs are
// preserved, so findings in the scope point back into the source cell.
func ScopeCircuit(c *netlist.Circuit) *netlist.Circuit {
	s := netlist.New(c.Name)
	s.Loc = c.Loc
	// Nodes first, in order, so supply canonicalization and wire loads
	// carry over before any element references them.
	for _, n := range c.Nodes {
		id := s.Node(n.Name)
		s.Nodes[id].CapFF = n.CapFF
		for k, v := range n.Attrs {
			s.SetAttr(id, k, v)
		}
	}
	for _, p := range c.Ports {
		s.DeclarePort(c.NodeName(p))
	}
	for _, d := range c.Devices {
		nd := s.AddDevice(d.Name, d.Type,
			c.NodeName(d.Gate), c.NodeName(d.Source), c.NodeName(d.Drain), c.NodeName(d.Bulk),
			d.W, d.L)
		nd.ExtraL = d.ExtraL
		nd.Vt = d.Vt
		nd.Loc = d.Loc
	}
	for _, r := range c.Resistors {
		nr := s.AddResistor(r.Name, c.NodeName(r.A), c.NodeName(r.B), r.Ohms)
		nr.Loc = r.Loc
	}
	// Child-facing nets become ports: the scope's view of the boundary.
	for _, inst := range c.Instances {
		for _, conn := range inst.Conns {
			if !c.IsSupply(conn) {
				s.DeclarePort(c.NodeName(conn))
			}
		}
	}
	return s
}

// PortClass describes how a cell couples to the outside through one
// port, as seen from a parent deciding whether nets crossing the
// boundary can fight or share charge.
type PortClass struct {
	// Driven: some channel path inside the cell (through possibly-
	// conducting devices, per dataflow conduction analysis) connects
	// the port to a supply rail or to a driven child port — the cell
	// can actively drive this net.
	Driven bool
	// Channel: the port touches a device channel terminal inside the
	// cell (directly or through a child), so charge on the net can
	// redistribute into internal diffusion even when nothing drives.
	Channel bool
	// Gate: the port loads at least one transistor gate inside the
	// cell — a pure input contributes capacitance but no drive.
	Gate bool
}

// Interface is the composed port classification of one cell.
type Interface struct {
	Cell  string
	Ports []PortClass
}

// nodeClasses computes the per-node Driven/Channel/Gate classification
// of a cell given its children's interfaces. Driven-ness is
// reachability over the local channel graph (edges = device channels
// dataflow says can conduct) from the supply rails and every net bound
// to a driven child port.
func nodeClasses(c *netlist.Circuit, children map[string]*Interface) ([]PortClass, error) {
	cls := make([]PortClass, len(c.Nodes))
	for _, d := range c.Devices {
		cls[d.Gate].Gate = true
		cls[d.Source].Channel = true
		cls[d.Drain].Channel = true
	}
	var seeds []netlist.NodeID
	for i := range c.Nodes {
		if c.IsSupply(netlist.NodeID(i)) {
			seeds = append(seeds, netlist.NodeID(i))
		}
	}
	for _, inst := range c.Instances {
		ci := children[inst.Cell]
		if ci == nil {
			return nil, fmt.Errorf("hier: cell %q: no interface for child cell %q", c.Name, inst.Cell)
		}
		if len(inst.Conns) != len(ci.Ports) {
			return nil, fmt.Errorf("hier: cell %q: instance %s has %d connections, cell %q has %d ports",
				c.Name, inst.Name, len(inst.Conns), inst.Cell, len(ci.Ports))
		}
		for pos, conn := range inst.Conns {
			pc := ci.Ports[pos]
			if pc.Driven {
				seeds = append(seeds, conn)
			}
			if pc.Channel {
				cls[conn].Channel = true
			}
			if pc.Gate {
				cls[conn].Gate = true
			}
		}
	}
	conducts := func(d *netlist.Device) bool { return dataflow.CanConduct(c, d) }
	netlist.NewAdjacency(c).Reach(seeds, conducts, false, func(n netlist.NodeID) bool {
		cls[n].Driven = true
		return false
	})
	return cls, nil
}

// CellInterface classifies each port of c, composing the interfaces of
// its direct children (which must all be present in children). Leaf
// cells pass an empty map.
func CellInterface(c *netlist.Circuit, children map[string]*Interface) (*Interface, error) {
	cls, err := nodeClasses(c, children)
	if err != nil {
		return nil, err
	}
	ifc := &Interface{Cell: c.Name, Ports: make([]PortClass, len(c.Ports))}
	for i, p := range c.Ports {
		ifc.Ports[i] = cls[p]
	}
	return ifc, nil
}

// BoundaryFindings checks every net of parent cell c for interactions
// its subcell scopes cannot see in isolation:
//
//   - drive fight: two or more independent drive sources on one net —
//     each driven child port counts as one source, a local channel
//     path to a rail counts as one more, and sources propagate to
//     neighboring nets through conducting local pass devices (what
//     flat verification would see), so a net reached laterally by one
//     child's drive and directly by another's still counts two.
//     Legitimate for a properly enabled bus, lethal for anything
//     else: inspect.
//   - charge sharing: a net no drive source reaches (not even
//     laterally) that exposes a channel terminal across an instance
//     boundary, so charge can redistribute between the parent's and
//     the child's diffusion without any restoring drive: inspect.
//
// Finding IDs use the parent's structural signatures, so they are
// stable under renames and deck reordering like every other fcv
// finding. A clean hierarchy produces no findings, keeping composed
// hierarchical results identical to whole-netlist verification.
func BoundaryFindings(c *netlist.Circuit, children map[string]*Interface) ([]obs.Finding, error) {
	cls, err := nodeClasses(c, children)
	if err != nil {
		return nil, err
	}
	// Independent drive sources are counted per conducting-channel
	// component: a local device whose channel can conduct (per
	// dataflow) merges its source and drain nets, so drive landing on
	// one net of a component reaches every other — the same lateral
	// propagation flat verification sees through a conducting pass
	// device. Each driven child port binding is one source for its
	// net's component (source identity is the binding, so no source is
	// counted twice on any net it reaches), and a supply rail in the
	// component adds exactly one more for the cell's own drive — fights
	// among purely local rail paths are the subcell scope's own
	// verification to catch.
	comp := make([]int, len(c.Nodes))
	for i := range comp {
		comp[i] = i
	}
	find := func(x int) int {
		for comp[x] != x {
			comp[x] = comp[comp[x]]
			x = comp[x]
		}
		return x
	}
	for _, d := range c.Devices {
		if dataflow.CanConduct(c, d) {
			comp[find(int(d.Source))] = find(int(d.Drain))
		}
	}
	compDrivers := make(map[int]int)
	railComp := make(map[int]bool)
	for i := range c.Nodes {
		if c.IsSupply(netlist.NodeID(i)) {
			railComp[find(i)] = true
		}
	}
	childChannels := make([]int, len(c.Nodes))
	for _, inst := range c.Instances {
		ci := children[inst.Cell]
		for pos, conn := range inst.Conns {
			if c.IsSupply(conn) {
				continue
			}
			pc := ci.Ports[pos]
			if pc.Driven {
				compDrivers[find(int(conn))]++
			} else if pc.Channel {
				childChannels[conn]++
			}
		}
	}
	sigs := netlist.ComputeSignatures(c)
	fights := netlist.NewIDCounter("boundary", "drive-fight")
	shares := netlist.NewIDCounter("boundary", "charge-share")
	var out []obs.Finding
	for i, n := range c.Nodes {
		id := netlist.NodeID(i)
		if c.IsSupply(id) || c.Nodes[id].IsPort {
			// The parent's own ports are driven (or not) by *its*
			// parent; that boundary is checked one level up.
			continue
		}
		root := find(i)
		drivers := compDrivers[root]
		if railComp[root] {
			drivers++
		}
		switch {
		case drivers >= 2:
			out = append(out, obs.Finding{
				ID:       fights.ID(fights.Count(sigs.SubjectSig(n.Name))),
				Source:   "boundary",
				Check:    "drive-fight",
				Subject:  n.Name,
				Severity: "inspect",
				Detail: fmt.Sprintf("net %s has %d independent drive sources across instance boundaries in cell %s",
					n.Name, drivers, c.Name),
				Evidence: obs.Evidence{
					Nets:      []string{n.Name},
					Context:   "hier boundary composition",
					Measured:  float64(drivers),
					Threshold: 1,
				},
			})
		case drivers == 0 && childChannels[i] > 0 && (cls[i].Channel || childChannels[i] >= 2):
			out = append(out, obs.Finding{
				ID:       shares.ID(shares.Count(sigs.SubjectSig(n.Name))),
				Source:   "boundary",
				Check:    "charge-share",
				Subject:  n.Name,
				Severity: "inspect",
				Detail: fmt.Sprintf("undriven net %s exposes channel terminals across %d instance boundaries in cell %s",
					n.Name, childChannels[i], c.Name),
				Evidence: obs.Evidence{
					Nets:      []string{n.Name},
					Context:   "hier boundary composition",
					Measured:  float64(childChannels[i]),
					Threshold: 0,
				},
			})
		}
	}
	return out, nil
}
