// Package dataflow is a static-analysis substrate over the flattened
// netlist: clock-phase modelling and propagation, dynamic-node
// classification, and source-to-node channel-graph reachability with
// per-path series device sets.
//
// The paper's methodology (§2.3, §4.2–4.3) deduces the meaning of
// full-custom transistor structures "automatically and conservatively"
// — and the clocked styles it names (domino, C²MOS, ratioed logic,
// two-phase transmission-gate latching) are exactly the ones whose
// wiring mistakes are invisible to local, per-device checks. This
// package provides the shared machinery those checks need:
//
//   - A phase model: clock nets are folded into phases (complement
//     naming like phi1/phi1_n and one-inverter structural complements
//     collapse onto one phase), and the consistent phase assignments
//     are enumerated, honouring the two-phase non-overlap discipline
//     for phi<n>-style phase pairs. Questions like "can this pull-up
//     and that pull-down ever conduct in the same phase?" become
//     bitmask operations over the assignment set.
//   - Drive-path enumeration: for any group output, the simple channel
//     paths from each supply rail and each external channel input,
//     with the series device set and its conduction condition as a
//     logic expression.
//   - Dynamic-node classification: domino precharge/evaluate nodes
//     (from recognition) plus C²MOS-style clocked-stage outputs, with
//     keeper detection and internal evaluate-node inventory.
//   - Latch transparency and same-phase race search over the channel/
//     gate connectivity graph.
//
// Everything is deterministic: nodes, groups and paths are visited in
// index order, and all reported slices are sorted.
package dataflow

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/recognize"
)

// maxPhases bounds phase-assignment enumeration. Beyond it the analysis
// degrades gracefully: Degraded() reports true and phase-dependent
// queries return conservative answers instead of exploding (2^6 = 64
// assignments fit one uint64 AssignMask word).
const maxPhases = 6

// PhaseRef locates a clock net in the phase model: which phase it
// follows and whether it is the complement rail of that phase.
type PhaseRef struct {
	// Phase indexes Analysis.PhaseNames.
	Phase int
	// Inverted marks complement rails (phi1_n follows phase phi1 with
	// Inverted set).
	Inverted bool
}

// AssignMask is a bitset over the enumerated phase assignments: bit i
// set means "true under assignment i".
type AssignMask uint64

// Analysis is the dataflow view of one recognized circuit. Build it
// with Analyze; it is cheap when the circuit has no clocks. An Analysis
// is not safe for concurrent use (the lint driver builds one per cell
// per worker).
type Analysis struct {
	// Rec is the recognition result the analysis is built over.
	Rec *recognize.Result
	// PhaseNames are the phase base names, sorted.
	PhaseNames []string
	// PhaseOf maps every clock net to its phase reference.
	PhaseOf map[netlist.NodeID]PhaseRef
	// Assigns are the consistent phase assignments: each entry is a
	// bitmask of phase values (bit p = value of phase p). Nil when the
	// analysis is degraded (too many phases).
	Assigns []uint32

	clockName  map[string]PhaseRef // logic-variable name → phase ref
	nonOverlap []int               // phase indices under two-phase non-overlap

	paths    map[pathsKey][]Path
	dynNodes []DynNode
	dynHeld  map[netlist.NodeID]*DynNode
	latches  []LatchInfo

	// channel/gate reverse indexes shared by reachability and race
	// search.
	gateGroups map[netlist.NodeID][]int // net → groups reading it as a gate
	chanGroups map[netlist.NodeID][]int // net → groups with it as channel input
	latchOf    map[int]int              // group index → latch index (-1 handled by absence)
}

// phiName matches numbered-phase base names (after the last
// hierarchical separator): phi1, phi2, … — the nets the two-phase
// non-overlap discipline of §2/Figure 4 applies to.
var phiName = regexp.MustCompile(`^phi\d+$`)

// Analyze builds the dataflow substrate for a recognized circuit.
func Analyze(rec *recognize.Result) *Analysis {
	a := &Analysis{
		Rec:        rec,
		PhaseOf:    make(map[netlist.NodeID]PhaseRef),
		clockName:  make(map[string]PhaseRef),
		paths:      make(map[pathsKey][]Path),
		gateGroups: make(map[netlist.NodeID][]int),
		chanGroups: make(map[netlist.NodeID][]int),
		latchOf:    make(map[int]int),
	}
	a.buildPhases()
	a.buildAssignments()
	for gi, g := range rec.Groups {
		for _, in := range g.Inputs {
			a.gateGroups[in] = append(a.gateGroups[in], gi)
		}
		for _, ci := range g.ChannelInputs {
			a.chanGroups[ci] = append(a.chanGroups[ci], gi)
		}
	}
	for li, l := range rec.Latches {
		for _, gi := range l.Groups {
			a.latchOf[gi] = li
		}
	}
	a.classifyDynNodes()
	a.buildLatches()
	return a
}

// Degraded reports that the circuit has more phases than the
// enumeration bound; phase-dependent rules should stay quiet rather
// than guess.
func (a *Analysis) Degraded() bool {
	return len(a.PhaseNames) > maxPhases
}

// AllMask returns the mask with one bit per enumerated assignment set.
func (a *Analysis) AllMask() AssignMask {
	if n := len(a.Assigns); n > 0 {
		return AssignMask(1)<<uint(n) - 1
	}
	return 1 // the single empty assignment of an unclocked circuit
}

// AssignCount returns the number of enumerated assignments (1 for an
// unclocked circuit: the empty assignment).
func (a *Analysis) AssignCount() int {
	if len(a.Assigns) > 0 {
		return len(a.Assigns)
	}
	return 1
}

// buildPhases folds the recognized clock nets into phases. A clock net
// is a complement rail when its name strips to another clock net
// (phi1_n, phi1_b, ckn) or when it is structurally a one-inverter image
// of another clock. Every other clock net becomes its own phase.
func (a *Analysis) buildPhases() {
	c := a.Rec.Circuit
	clocks := a.Rec.Clocks
	if len(clocks) == 0 {
		return
	}
	names := make(map[string]netlist.NodeID, len(clocks))
	for _, ck := range clocks {
		names[c.NodeName(ck)] = ck
	}
	// complementOf returns the base clock net this one complements, or
	// InvalidNode.
	complementOf := func(ck netlist.NodeID) netlist.NodeID {
		name := c.NodeName(ck)
		for _, suf := range []string{"_n", "_b", "n", "b"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && base != "" {
				if id, ok := names[base]; ok {
					return id
				}
			}
		}
		// Structural: driven by an inverter whose input is a clock.
		if g := a.Rec.GroupDriving(ck); g != nil {
			if f := g.Func(ck); f != nil && f.Complementary {
				if v, ok := f.PullDown.(logic.Var); ok {
					if id, okc := names[string(v)]; okc && id != ck {
						return id
					}
				}
			}
		}
		return netlist.InvalidNode
	}
	// Pass 1: base phases, in sorted clock order (rec.Clocks is sorted
	// by node ID; sort names for stability across renames).
	type fold struct{ ck, base netlist.NodeID }
	var bases []netlist.NodeID
	var folds []fold
	for _, ck := range clocks {
		if base := complementOf(ck); base != netlist.InvalidNode {
			folds = append(folds, fold{ck, base})
		} else {
			bases = append(bases, ck)
		}
	}
	sort.Slice(bases, func(i, j int) bool {
		return c.NodeName(bases[i]) < c.NodeName(bases[j])
	})
	idx := make(map[netlist.NodeID]int, len(bases))
	for i, ck := range bases {
		idx[ck] = i
		a.PhaseNames = append(a.PhaseNames, c.NodeName(ck))
		ref := PhaseRef{Phase: i}
		a.PhaseOf[ck] = ref
		a.clockName[c.NodeName(ck)] = ref
	}
	for _, f := range folds {
		base, ok := idx[f.base]
		if !ok {
			// Complement of a complement (or of a net that itself
			// folded): follow one hop; give up and make it a phase if
			// the chain is odd-shaped.
			if ref, okr := a.PhaseOf[f.base]; okr {
				r := PhaseRef{Phase: ref.Phase, Inverted: !ref.Inverted}
				a.PhaseOf[f.ck] = r
				a.clockName[c.NodeName(f.ck)] = r
				continue
			}
			base = len(a.PhaseNames)
			a.PhaseNames = append(a.PhaseNames, c.NodeName(f.ck))
			idx[f.ck] = base
			ref := PhaseRef{Phase: base}
			a.PhaseOf[f.ck] = ref
			a.clockName[c.NodeName(f.ck)] = ref
			continue
		}
		ref := PhaseRef{Phase: base, Inverted: true}
		a.PhaseOf[f.ck] = ref
		a.clockName[c.NodeName(f.ck)] = ref
	}
	// Two-phase non-overlap applies to the numbered phi phases.
	for i, name := range a.PhaseNames {
		base := name
		if k := strings.LastIndex(base, "/"); k >= 0 {
			base = base[k+1:]
		}
		if phiName.MatchString(strings.ToLower(base)) {
			a.nonOverlap = append(a.nonOverlap, i)
		}
	}
}

// buildAssignments enumerates the consistent phase assignments: all
// value vectors over the phases, minus those where two non-overlapping
// phi phases are high at once.
func (a *Analysis) buildAssignments() {
	p := len(a.PhaseNames)
	if p == 0 || p > maxPhases {
		return
	}
	var overlapMask uint32
	for _, i := range a.nonOverlap {
		overlapMask |= 1 << uint(i)
	}
	for v := uint32(0); v < 1<<uint(p); v++ {
		if len(a.nonOverlap) >= 2 && popcount(v&overlapMask) > 1 {
			continue
		}
		a.Assigns = append(a.Assigns, v)
	}
}

func popcount(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// IsClockVar reports whether a logic-expression variable names a clock
// net of the phase model.
func (a *Analysis) IsClockVar(name string) bool {
	_, ok := a.clockName[name]
	return ok
}

// HasClockVar reports whether the expression mentions any clock net.
func (a *Analysis) HasClockVar(e logic.Expr) bool {
	for _, v := range logic.Vars(e) {
		if a.IsClockVar(v) {
			return true
		}
	}
	return false
}

// ClockValue returns a clock net's value under assignment ai.
func (a *Analysis) ClockValue(ref PhaseRef, ai int) bool {
	v := a.Assigns[ai]>>uint(ref.Phase)&1 == 1
	if ref.Inverted {
		return !v
	}
	return v
}

// SubstClocks substitutes every clock variable of e with its value
// under assignment ai, leaving data variables free.
func (a *Analysis) SubstClocks(e logic.Expr, ai int) logic.Expr {
	for _, v := range logic.Vars(e) {
		ref, ok := a.clockName[v]
		if !ok {
			continue
		}
		e = logic.Substitute(e, v, logic.Const(a.ClockValue(ref, ai)))
	}
	return e
}

// SatMask returns the assignments under which e is satisfiable with
// data variables free. With no phase model (unclocked or degraded) the
// result is AllMask or 0 by plain satisfiability.
func (a *Analysis) SatMask(e logic.Expr) AssignMask {
	if len(a.Assigns) == 0 || !a.HasClockVar(e) {
		if logic.Satisfiable(e) {
			return a.AllMask()
		}
		return 0
	}
	var m AssignMask
	for ai := range a.Assigns {
		if logic.Satisfiable(a.SubstClocks(e, ai)) {
			m |= 1 << uint(ai)
		}
	}
	return m
}

// AssignString renders one assignment for diagnostics: "phi1=1 phi2=0".
func (a *Analysis) AssignString(ai int) string {
	if len(a.Assigns) == 0 {
		return "any phase"
	}
	parts := make([]string, len(a.PhaseNames))
	for i, name := range a.PhaseNames {
		v := 0
		if a.Assigns[ai]>>uint(i)&1 == 1 {
			v = 1
		}
		parts[i] = fmt.Sprintf("%s=%d", name, v)
	}
	return strings.Join(parts, " ")
}

// MaskString renders the first assignment of a mask (the witness the
// diagnostics quote).
func (a *Analysis) MaskString(m AssignMask) string {
	for ai := 0; ai < a.AssignCount(); ai++ {
		if m&(1<<uint(ai)) != 0 {
			return a.AssignString(ai)
		}
	}
	return "no phase"
}
