// Package recognize deduces the logical and electrical meaning of groups
// of full-custom transistors.
//
// This is the enabling technology of the paper's entire verification
// methodology. §2.3: "A large challenge caused by our methodology is the
// automatic recognition of groups of full custom transistors in their
// logical and electrical meanings. The logical behavior or intent of a
// collection of transistors has no inherent pre-defined meaning as
// normally provided by traditional cell library approaches. Subsequently,
// all logic and timing constraints along with electrical requirements
// have to be automatically and conservatively deduced from the topology
// and context of the actual transistors."
//
// The analysis proceeds in four stages:
//
//  1. Partition devices into channel-connected components (CCCs): the
//     maximal groups connected through source/drain terminals, cut at
//     the supply rails.
//  2. For every CCC output node, derive the pull-up and pull-down
//     conduction functions by path enumeration over the switch graph.
//  3. Classify each CCC into a logic family — static complementary,
//     ratioed, dynamic (domino), DCVSL dual-rail, or pass-transistor —
//     from the shape of those functions (§2: "The logic families include
//     dynamic, single or dual-rail circuits, differential cascode voltage
//     swing logic (DCVSL), pass transistor logic, and of course,
//     complementary logic gates.")
//  4. Identify clock nets, dynamic nodes and state elements
//     ("state-elements can be invented on-the-fly", §2; their automatic
//     recognition "is essential", §4.3) via feedback analysis over the
//     CCC connectivity graph.
package recognize

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/process"
)

// Family is the recognized logic family of a channel-connected component.
type Family int

// The logic families of §2, plus Unknown for structures the recognizer
// cannot name (which the CBV methodology reports for designer
// inspection rather than silently accepting).
const (
	FamilyUnknown Family = iota
	FamilyStaticCMOS
	FamilyRatioed
	FamilyDynamic
	FamilyDCVSL
	FamilyPassTransistor
)

// String returns the family name.
func (f Family) String() string {
	switch f {
	case FamilyStaticCMOS:
		return "static-cmos"
	case FamilyRatioed:
		return "ratioed"
	case FamilyDynamic:
		return "dynamic"
	case FamilyDCVSL:
		return "dcvsl"
	case FamilyPassTransistor:
		return "pass-transistor"
	default:
		return "unknown"
	}
}

// OutputFunc is the deduced behaviour of one CCC output node.
type OutputFunc struct {
	// Node is the output node.
	Node netlist.NodeID
	// PullUp is the condition under which the node is connected to vdd
	// through the CCC (in terms of gate-net variables).
	PullUp logic.Expr
	// PullDown is the condition for connection to vss.
	PullDown logic.Expr
	// Complementary reports PullUp ≡ ¬PullDown: the node is always
	// driven, never floating, never fighting.
	Complementary bool
	// CanFloat reports that some input assignment leaves the node
	// connected to neither rail (a dynamic/storage condition).
	CanFloat bool
	// CanFight reports that some input assignment connects the node to
	// both rails at once (ratioed or erroneous).
	CanFight bool
	// Function is the logic function of the node where it is defined:
	// ¬PullDown for complementary and dynamic (evaluate-phase) logic.
	// May be nil when the node has no clean functional abstraction.
	Function logic.Expr
}

// Group is one channel-connected component with its deduced meaning.
type Group struct {
	// Index is the group's position in Result.Groups.
	Index int
	// Devices are the member transistors.
	Devices []*netlist.Device
	// Internal are channel nodes entirely inside the group.
	Internal []netlist.NodeID
	// Outputs are channel nodes visible outside: ports, or nodes that
	// drive gates elsewhere.
	Outputs []netlist.NodeID
	// Inputs are the distinct gate nets of member devices that are not
	// produced by this group.
	Inputs []netlist.NodeID
	// ChannelInputs are non-supply external nodes used as source/drain
	// (signals that pass *through* the group) — the signature of
	// pass-transistor structures.
	ChannelInputs []netlist.NodeID
	// Family is the recognized logic family.
	Family Family
	// Funcs are per-output deduced behaviours.
	Funcs []*OutputFunc
	// ClockNets are the clock nodes gating this group (precharge or
	// pass clocks), if any.
	ClockNets []netlist.NodeID
	// Footed, for dynamic groups, reports whether the evaluate tree
	// includes a clocked foot device in every pull-down path.
	Footed bool

	// shape is the group's shape index + 1 in the Analyze call that
	// built it (shape.go), or 0 when the group was not keyed.
	shape int
}

// Func returns the OutputFunc for a node, or nil.
func (g *Group) Func(id netlist.NodeID) *OutputFunc {
	for _, f := range g.Funcs {
		if f.Node == id {
			return f
		}
	}
	return nil
}

// Latch is a recognized state element: a feedback loop in the CCC graph.
type Latch struct {
	// Groups are the indices of the CCCs forming the loop.
	Groups []int
	// StateNodes are the nodes holding state (outputs inside the loop).
	StateNodes []netlist.NodeID
	// Clocks are clock nets gating any group in the loop (empty for an
	// unclocked keeper/cross-coupled pair).
	Clocks []netlist.NodeID
	// Static reports whether the loop holds state without a clock
	// (cross-coupled keeper) as opposed to a dynamic storage node.
	Static bool
}

// Result is the full recognition of a flat circuit.
type Result struct {
	// Circuit is the analyzed circuit.
	Circuit *netlist.Circuit
	// Groups are the channel-connected components.
	Groups []*Group
	// GroupOfDevice maps device index (position in Circuit.Devices) to
	// group index.
	GroupOfDevice []int
	// DriverOf maps a node to the group that drives it (-1 if none).
	DriverOf map[netlist.NodeID]int
	// Clocks are the identified clock nets, sorted.
	Clocks []netlist.NodeID
	// DynamicNodes are outputs of dynamic groups (precharged nodes).
	DynamicNodes []netlist.NodeID
	// StateNodes are nodes recognized as holding state.
	StateNodes []netlist.NodeID
	// Latches are the recognized state elements.
	Latches []Latch

	// paths memoizes channel-path enumerations (see ChannelPaths). Its
	// mutex makes the Result safe for concurrent read-side consumers.
	paths pathCache
}

// IsClock reports whether the node was identified as a clock.
func (r *Result) IsClock(id netlist.NodeID) bool {
	for _, c := range r.Clocks {
		if c == id {
			return true
		}
	}
	return false
}

// IsDynamic reports whether the node is a recognized dynamic node.
func (r *Result) IsDynamic(id netlist.NodeID) bool {
	for _, d := range r.DynamicNodes {
		if d == id {
			return true
		}
	}
	return false
}

// IsState reports whether the node is a recognized state node.
func (r *Result) IsState(id netlist.NodeID) bool {
	for _, s := range r.StateNodes {
		if s == id {
			return true
		}
	}
	return false
}

// GroupDriving returns the group whose output drives the node, or nil.
func (r *Result) GroupDriving(id netlist.NodeID) *Group {
	if gi, ok := r.DriverOf[id]; ok && gi >= 0 {
		return r.Groups[gi]
	}
	return nil
}

// Keeper returns the node's staticizing keeper, or nil: a PMOS from vdd
// onto the node, gated by a non-clock net that some group drives
// (typically the buffered output fed back). Every device on the node's
// channel belongs to the group driving it, so only that group is
// scanned; the first match in deck order wins.
func (r *Result) Keeper(id netlist.NodeID) *netlist.Device {
	g := r.GroupDriving(id)
	if g == nil {
		return nil
	}
	c := r.Circuit
	for _, d := range g.Devices {
		if d.Type != process.PMOS || r.IsClock(d.Gate) {
			continue
		}
		if !(d.Drain == id && c.IsVdd(d.Source) || d.Source == id && c.IsVdd(d.Drain)) {
			continue
		}
		if _, driven := r.DriverOf[d.Gate]; driven {
			return d
		}
	}
	return nil
}

// Summary returns a one-line-per-family count report.
func (r *Result) Summary() string {
	counts := make(map[Family]int)
	for _, g := range r.Groups {
		counts[g.Family]++
	}
	fams := []Family{FamilyStaticCMOS, FamilyDynamic, FamilyDCVSL, FamilyRatioed, FamilyPassTransistor, FamilyUnknown}
	var parts []string
	for _, f := range fams {
		if counts[f] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", f, counts[f]))
		}
	}
	return fmt.Sprintf("%d groups (%s), %d clocks, %d dynamic nodes, %d latches",
		len(r.Groups), strings.Join(parts, " "), len(r.Clocks), len(r.DynamicNodes), len(r.Latches))
}

// Analyze runs the full recognition pipeline on a flat circuit.
// Instances must have been flattened away (hierarchy carries no meaning
// for recognition, per §2.1).
func Analyze(c *netlist.Circuit) (*Result, error) {
	return analyzeWith(c, true)
}

// analyzeWith is Analyze with the shape memo switchable, so tests can hold
// the memo against fresh recognition of every group.
func analyzeWith(c *netlist.Circuit, memo bool) (*Result, error) {
	if len(c.Instances) > 0 {
		return nil, fmt.Errorf("recognize: circuit %s has %d unflattened instances; flatten first", c.Name, len(c.Instances))
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("recognize: %w", err)
	}
	r := &Result{
		Circuit:  c,
		DriverOf: make(map[netlist.NodeID]int),
	}
	r.buildGroups(netlist.NewAdjacency(c))
	clocks := r.identifyClocks()
	// One BDD manager per group shape for this call only; see groupBDD.
	bdds := make([]groupBDD, len(r.Groups))
	w := &pathWalker{c: c}
	var shapes *shapeMemo
	if memo {
		shapes = newShapeMemo(c)
	}
	for i, g := range r.Groups {
		if shapes == nil || !shapes.reuse(g, clocks, bdds) {
			g.deriveFuncs(c, clocks, &bdds[i], w)
		}
	}
	// Second pass: functional inference of unnamed domino clocks. Of
	// everything deriveFuncs computed, only Function depends on the
	// clock set, so only it is recomputed.
	if inferred := r.inferDominoClocks(clocks, bdds); len(inferred) > 0 {
		for ck := range inferred {
			clocks[ck] = true
		}
		for _, g := range r.Groups {
			for _, f := range g.Funcs {
				f.Function = nodeFunction(c, f, clocks)
			}
		}
	}
	for i, g := range r.Groups {
		g.classify(c, clocks, &bdds[i])
	}
	r.pairDCVSL()
	// Clock-gated groups recorded; collect dynamic nodes.
	for _, g := range r.Groups {
		if g.Family == FamilyDynamic {
			for _, f := range g.Funcs {
				r.DynamicNodes = append(r.DynamicNodes, f.Node)
			}
		}
	}
	r.Clocks = sortedNodeSet(clocks)
	r.findLatches()
	sortNodes(r.DynamicNodes)
	sortNodes(r.StateNodes)
	return r, nil
}

// sortNodes sorts a node slice in place.
func sortNodes(ids []netlist.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// sortedNodeSet converts a set to a sorted slice.
func sortedNodeSet(set map[netlist.NodeID]bool) []netlist.NodeID {
	out := make([]netlist.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sortNodes(out)
	return out
}
