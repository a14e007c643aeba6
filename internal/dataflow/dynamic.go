package dataflow

import (
	"sort"

	"repro/internal/netlist"
	"repro/internal/recognize"
)

// Kind distinguishes the recognized dynamic-node structures.
type Kind int

const (
	// KindDomino is a precharge/evaluate node of a recognized dynamic
	// (domino) group.
	KindDomino Kind = iota
	// KindC2MOS is a clocked-stage output (C²MOS / clocked tristate)
	// that holds its value dynamically during the off phase.
	KindC2MOS
)

// String names the kind.
func (k Kind) String() string {
	if k == KindC2MOS {
		return "c2mos"
	}
	return "domino"
}

// DynNode is one classified dynamic node: the precharge/evaluate
// structure around it, its keeper (if any), and the internal evaluate
// nodes that share charge with it.
type DynNode struct {
	// Node is the dynamic node.
	Node netlist.NodeID
	// Group is the index of the driving group.
	Group int
	// Kind is the structure class.
	Kind Kind
	// Clocks are the clock nets gating the structure, sorted.
	Clocks []netlist.NodeID
	// Keeper is the staticizing keeper device (recognize.Result.Keeper),
	// nil when absent.
	Keeper *netlist.Device
	// Footed, for domino nodes, mirrors the group's footed-evaluate
	// property.
	Footed bool
	// Internal are the internal channel nodes on evaluate (vss-side)
	// paths — the charge-sharing partners of the dynamic node. Sorted.
	Internal []netlist.NodeID
}

// classifyDynNodes builds the dynamic-node inventory: recognized domino
// nodes first, then C²MOS-style clocked-stage outputs of non-dynamic
// groups.
func (a *Analysis) classifyDynNodes() {
	a.dynHeld = make(map[netlist.NodeID]*DynNode)
	c := a.Rec.Circuit
	addNode := func(dn DynNode) {
		a.dynNodes = append(a.dynNodes, dn)
		a.dynHeld[dn.Node] = &a.dynNodes[len(a.dynNodes)-1]
	}
	for gi, g := range a.Rec.Groups {
		if g.Family == recognize.FamilyDynamic {
			for _, f := range g.Funcs {
				dn := DynNode{
					Node:   f.Node,
					Group:  gi,
					Kind:   KindDomino,
					Clocks: append([]netlist.NodeID(nil), g.ClockNets...),
					Keeper: a.Rec.Keeper(f.Node),
					Footed: g.Footed,
				}
				seen := make(map[netlist.NodeID]bool)
				for _, p := range a.DrivePaths(g, f.Node) {
					if !p.FromVss {
						continue
					}
					for _, n := range PathNodes(p) {
						if !seen[n] && !c.Nodes[n].IsPort {
							seen[n] = true
							dn.Internal = append(dn.Internal, n)
						}
					}
				}
				sort.Slice(dn.Internal, func(i, j int) bool { return dn.Internal[i] < dn.Internal[j] })
				addNode(dn)
			}
		}
	}
	for gi, g := range a.Rec.Groups {
		if g.Family == recognize.FamilyDynamic {
			continue
		}
		for _, out := range g.Outputs {
			if a.dynHeld[out] != nil || !a.ClockedStage(g, out) {
				continue
			}
			dn := DynNode{Node: out, Group: gi, Kind: KindC2MOS, Keeper: a.Rec.Keeper(out)}
			ckSet := make(map[netlist.NodeID]bool)
			for _, p := range a.DrivePaths(g, out) {
				for _, d := range p.Devices {
					if _, isCk := a.PhaseOf[d.Gate]; isCk {
						ckSet[d.Gate] = true
					}
				}
			}
			for ck := range ckSet {
				dn.Clocks = append(dn.Clocks, ck)
			}
			sort.Slice(dn.Clocks, func(i, j int) bool { return dn.Clocks[i] < dn.Clocks[j] })
			addNode(dn)
		}
	}
	sort.SliceStable(a.dynNodes, func(i, j int) bool { return a.dynNodes[i].Node < a.dynNodes[j].Node })
	// Re-point dynHeld after the sort moved the slice elements.
	for i := range a.dynNodes {
		a.dynHeld[a.dynNodes[i].Node] = &a.dynNodes[i]
	}
}

// DynNodes returns the classified dynamic nodes, sorted by node ID.
// The returned slice is shared; treat as read-only.
func (a *Analysis) DynNodes() []DynNode {
	return a.dynNodes
}

// DynHeld returns the dynamic-node record holding this net, or nil.
// A dyn-held net stores its value when undriven — it is recognized
// storage, not a floating defect.
func (a *Analysis) DynHeld(id netlist.NodeID) *DynNode {
	return a.dynHeld[id]
}
