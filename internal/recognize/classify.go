package recognize

import (
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/process"
)

// classify assigns a logic family to the group from the shape of its
// deduced conduction functions and its structure. The tests are ordered
// from most specific to most general; anything that matches nothing is
// FamilyUnknown, which the CBV flow reports rather than trusts.
func (g *Group) classify(c *netlist.Circuit, clocks map[netlist.NodeID]bool, gb *groupBDD) {
	if len(g.Funcs) == 0 {
		g.Family = FamilyUnknown
		return
	}
	g.ClockNets = g.clockGates(c, clocks)

	switch {
	case g.isDynamic(c, clocks, gb):
		g.Family = FamilyDynamic
		// A keeper's fight with the evaluate tree blocks the generic
		// functional abstraction (CanFight); once the group is known to
		// be dynamic, the designed behaviour is the evaluate-phase
		// pull-down complement, keeper excluded.
		for _, f := range g.Funcs {
			if f.Function != nil {
				continue
			}
			eval := f.PullDown
			for ck := range clocks {
				eval = logic.Substitute(eval, c.NodeName(ck), logic.True)
			}
			f.Function = logic.Not(eval)
		}
	case g.isPassTransistor(c):
		g.Family = FamilyPassTransistor
	case g.isRatioed(gb):
		g.Family = FamilyRatioed
	case g.isStaticCMOS(c):
		g.Family = FamilyStaticCMOS
	default:
		g.Family = FamilyUnknown
	}
}

// clockGates returns the clock nets gating any device of the group.
func (g *Group) clockGates(c *netlist.Circuit, clocks map[netlist.NodeID]bool) []netlist.NodeID {
	set := make(map[netlist.NodeID]bool)
	for _, d := range g.Devices {
		if clocks[d.Gate] {
			set[d.Gate] = true
		}
	}
	return sortedNodeSet(set)
}

// isStaticCMOS: every output is complementary (always driven, never
// fighting), pull-ups are PMOS-only and pull-downs NMOS-only.
func (g *Group) isStaticCMOS(c *netlist.Circuit) bool {
	for _, f := range g.Funcs {
		if !f.Complementary {
			return false
		}
	}
	// Structure check: no NMOS touches vdd, no PMOS touches vss.
	for _, d := range g.Devices {
		touchesVdd := c.IsVdd(d.Source) || c.IsVdd(d.Drain)
		touchesVss := c.IsVss(d.Source) || c.IsVss(d.Drain)
		if d.Type == process.NMOS && touchesVdd {
			return false
		}
		if d.Type == process.PMOS && touchesVss {
			return false
		}
	}
	return true
}

// isRatioed: some output's pull-up (or pull-down) network is permanently
// conducting — a grounded-gate PMOS load or equivalent — so the output
// level is set by a fight the designer sized to win (pseudo-NMOS).
func (g *Group) isRatioed(gb *groupBDD) bool {
	for _, pr := range gb.refs {
		upAlways := pr.up == logic.RefTrue
		downAlways := pr.down == logic.RefTrue
		if (upAlways && !downAlways && pr.down != logic.RefFalse) ||
			(downAlways && !upAlways && pr.up != logic.RefFalse) {
			return true
		}
	}
	return false
}

// isDynamic: a precharge-evaluate structure. The output has a clocked
// precharge PMOS from vdd, its pull-down (during evaluate) depends on
// data, and the node is not complementary (it is not a static gate that
// happens to take a clock input). Keepers — extra PMOS pull-ups gated by
// feedback — are permitted; they do not make the gate static (§4.2,
// Figure 3).
func (g *Group) isDynamic(c *netlist.Circuit, clocks map[netlist.NodeID]bool, gb *groupBDD) bool {
	if len(g.ClockNets) == 0 {
		return false
	}
	dynamic := false
	for i, f := range g.Funcs {
		if f.Complementary {
			continue // a static gate, whatever its inputs are named
		}
		// Precharge device: clocked PMOS from vdd onto this output.
		hasPrecharge := false
		for _, d := range g.Devices {
			if d.Type == process.PMOS && clocks[d.Gate] &&
				(c.IsVdd(d.Source) || c.IsVdd(d.Drain)) &&
				(d.Source == f.Node || d.Drain == f.Node) {
				hasPrecharge = true
				break
			}
		}
		if !hasPrecharge {
			continue
		}
		// Evaluate-phase pull-down must depend on data (not just the
		// clocks themselves).
		down := f.PullDown
		for ck := range clocks {
			down = logic.Substitute(down, c.NodeName(ck), logic.True)
		}
		if len(logic.Vars(down)) == 0 {
			continue
		}
		dynamic = true
		// Footed: with all clocks low, the pull-down is off no matter
		// the data (every evaluate path has a clocked foot).
		off := gb.refs[i].down
		for ck := range clocks {
			off = gb.m.Restrict(off, c.NodeName(ck), false)
		}
		g.Footed = off == logic.RefFalse
	}
	return dynamic
}

// pairDCVSL upgrades pairs of groups to FamilyDCVSL. The two halves of a
// differential cascode voltage switch gate are *separate* CCCs — the
// cross-coupling runs through gate terminals, which are CCC boundaries —
// so DCVSL cannot be recognized group-locally. A pair (g1, g2) with
// single outputs (q, qn) is DCVSL when every pull-up path of q is a PMOS
// from vdd gated by qn and vice versa, and both pull-down trees are
// NMOS networks driven purely by data.
//
// The pull-down trees of real DCVSL are complementary *given* that the
// dual-rail inputs are complementary, but the recognizer sees the true
// and complement input rails as independent nets and cannot assume that
// relation, so functional complementarity is not checked here — it is
// exactly the kind of residual question the CBV flow routes to the
// equivalence checker.
func (r *Result) pairDCVSL() {
	c := r.Circuit
	for _, g1 := range r.Groups {
		if g1.Family != FamilyUnknown || len(g1.Outputs) != 1 {
			continue
		}
		o1 := g1.Outputs[0]
		o2 := dcvslPartner(c, g1)
		if o2 == netlist.InvalidNode {
			continue
		}
		gi2, ok := r.DriverOf[o2]
		if !ok {
			continue
		}
		g2 := r.Groups[gi2]
		if g2.Family != FamilyUnknown || len(g2.Outputs) != 1 || g2.Outputs[0] != o2 {
			continue
		}
		if dcvslPartner(c, g2) != o1 {
			continue
		}
		if !dataOnlyPullDown(c, g1, o1, o2) || !dataOnlyPullDown(c, g2, o1, o2) {
			continue
		}
		g1.Family = FamilyDCVSL
		g2.Family = FamilyDCVSL
	}
}

// dcvslPartner returns the single net gating all of the group's pull-up
// PMOS devices from vdd onto its output, provided the group's pull-ups
// consist only of such devices and its remaining devices are NMOS. It
// returns InvalidNode if the structure does not match.
func dcvslPartner(c *netlist.Circuit, g *Group) netlist.NodeID {
	out := g.Outputs[0]
	partner := netlist.InvalidNode
	for _, d := range g.Devices {
		if d.Type == process.NMOS {
			if c.IsVdd(d.Source) || c.IsVdd(d.Drain) {
				return netlist.InvalidNode
			}
			continue
		}
		// Every PMOS must be a vdd→out pull-up with a consistent gate.
		onOut := d.Source == out || d.Drain == out
		onVdd := c.IsVdd(d.Source) || c.IsVdd(d.Drain)
		if !onOut || !onVdd {
			return netlist.InvalidNode
		}
		if partner != netlist.InvalidNode && partner != d.Gate {
			return netlist.InvalidNode
		}
		partner = d.Gate
	}
	return partner
}

// dataOnlyPullDown reports that the group's pull-down function exists and
// mentions neither output of the candidate DCVSL pair.
func dataOnlyPullDown(c *netlist.Circuit, g *Group, o1, o2 netlist.NodeID) bool {
	f := g.Func(g.Outputs[0])
	if f == nil {
		return false
	}
	vars := logic.Vars(f.PullDown)
	if len(vars) == 0 {
		return false
	}
	n1, n2 := c.NodeName(o1), c.NodeName(o2)
	for _, v := range vars {
		if v == n1 || v == n2 {
			return false
		}
	}
	return true
}

// isPassTransistor: the group routes an external signal through device
// channels — it has a channel input, or it contains a source/drain path
// between two externally visible non-rail nodes with no rail involvement
// (a transmission-gate/steering structure).
func (g *Group) isPassTransistor(c *netlist.Circuit) bool {
	if len(g.ChannelInputs) > 0 {
		// A structure that also has rail pull networks (e.g. a tri-state
		// driver on a bus port) is not pure pass logic; require that at
		// least one device channel-connects two non-rail external nodes.
		for _, d := range g.Devices {
			sExt, dExt := g.isExternal(d.Source), g.isExternal(d.Drain)
			if sExt && dExt {
				return true
			}
		}
	}
	return false
}

// isExternal reports whether id is one of the group's output or
// channel-input nodes.
func (g *Group) isExternal(id netlist.NodeID) bool {
	for _, o := range g.Outputs {
		if o == id {
			return true
		}
	}
	return false
}
