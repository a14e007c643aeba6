package lint

// The FCV011–FCV018 family covers the clocked circuit styles of §2 —
// domino, C²MOS/NORA, ratioed logic, two-phase transmission-gate
// latching — whose wiring mistakes are invisible to the local,
// per-device checks of FCV001–FCV010. They run on the internal/dataflow
// substrate: clock-phase enumeration, drive-path sets, dynamic-node
// classification and latch transparency. All of them stay quiet when
// the phase model is degraded (more phases than the enumeration bound)
// rather than guess.

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/recognize"
)

// ---------------------------------------------------------------- FCV011

// checkClockedStageDiscipline flags C²MOS-style clocked stages whose
// pull-up and pull-down are never enabled under the same phase
// assignment — a miswired clock polarity (both clock devices on the
// same rail of the phase) leaves the stage unable to drive in any
// phase: it only precharges one way or floats.
func checkClockedStageDiscipline(r *rule, ctx *Context) {
	df := ctx.Dataflow()
	if df.Degraded() || len(df.PhaseNames) == 0 {
		return
	}
	c := ctx.Circuit
	for _, g := range ctx.Rec.Groups {
		if g.Family == recognize.FamilyDynamic {
			continue
		}
		for _, f := range g.Funcs {
			if !df.ClockedStage(g, f.Node) {
				continue
			}
			up := df.SatMask(f.PullUp)
			down := df.SatMask(f.PullDown)
			if up == 0 || down == 0 || up&down != 0 {
				continue
			}
			r.emit(ctx, c.NodeName(f.Node), ctx.nodeLoc(f.Node),
				"clocked stage output %s can pull up only under %s and pull down only under %s — no phase drives both levels (clock polarity miswire)",
				c.NodeName(f.Node), df.MaskString(up), df.MaskString(down))
		}
	}
}

// ---------------------------------------------------------------- FCV012

// checkNoraDiscipline flags a domino/NORA ordering violation: a dynamic
// (precharged) node directly gating an NMOS of another dynamic group
// evaluating on the same phase. During precharge the node is high, so
// the receiving evaluate tree conducts spuriously at the start of
// evaluate and can falsely discharge — domino composition requires a
// static inversion between same-phase dynamic stages.
func checkNoraDiscipline(r *rule, ctx *Context) {
	df := ctx.Dataflow()
	if df.Degraded() {
		return
	}
	c := ctx.Circuit
	for _, dn := range df.DynNodes() {
		if dn.Kind != dataflow.KindDomino {
			continue
		}
		phases := make(map[dataflow.PhaseRef]bool)
		for _, ck := range dn.Clocks {
			phases[df.PhaseOf[ck]] = true
		}
		for gi, g2 := range ctx.Rec.Groups {
			if gi == dn.Group || g2.Family != recognize.FamilyDynamic {
				continue
			}
			samePhase := false
			for _, ck := range g2.ClockNets {
				if phases[df.PhaseOf[ck]] {
					samePhase = true
					break
				}
			}
			if !samePhase {
				continue
			}
			for _, d := range g2.Devices {
				if d.Type == process.NMOS && d.Gate == dn.Node {
					r.emit(ctx, c.NodeName(dn.Node), d.Loc,
						"dynamic node %s directly gates evaluate device %s of a same-phase dynamic group — precharge glitch propagates; insert a static inversion",
						c.NodeName(dn.Node), d.Name)
				}
			}
		}
	}
}

// ---------------------------------------------------------------- FCV013

// checkLatchRace flags same-phase back-to-back latch races: data
// launched from a transparent latch reaching a second latch that is
// transparent under the same phase assignment races through two stages
// in one phase — the Figure 4 two-phase discipline exists precisely to
// prevent this.
func checkLatchRace(r *rule, ctx *Context) {
	df := ctx.Dataflow()
	if df.Degraded() {
		return
	}
	c := ctx.Circuit
	latches := df.Latches()
	stateName := func(li int) string {
		l := latches[li].Latch
		if len(l.StateNodes) > 0 {
			return c.NodeName(l.StateNodes[0])
		}
		return fmt.Sprintf("latch%d", li)
	}
	for _, race := range df.LatchRaces() {
		r.emit(ctx, c.NodeName(race.Through), ctx.nodeLoc(race.Through),
			"data from latch at %s can race through %s into the latch at %s while both are transparent (%s)",
			stateName(race.From), c.NodeName(race.Through), stateName(race.To), df.MaskString(race.Mask))
	}
}

// ---------------------------------------------------------------- FCV014

// checkPhaseFight flags VDD–VSS drive fights reachable under some phase
// assignment: a group output whose pull-up and pull-down conduct
// simultaneously for some data once the clocks take consistent values.
// Families that fight by design (ratioed, DCVSL, dynamic keepers) and
// storage loops (latch keepers fight their write path) are excluded —
// this rule is for sneak drive fights, not sized fights.
func checkPhaseFight(r *rule, ctx *Context) {
	df := ctx.Dataflow()
	if df.Degraded() {
		return
	}
	c := ctx.Circuit
	for gi, g := range ctx.Rec.Groups {
		switch g.Family {
		case recognize.FamilyDynamic, recognize.FamilyRatioed, recognize.FamilyDCVSL:
			continue
		}
		if df.LatchMember(gi) {
			continue
		}
		for _, f := range g.Funcs {
			if !f.CanFight {
				continue
			}
			if !df.HasClockVar(f.PullUp) && !df.HasClockVar(f.PullDown) {
				continue
			}
			m := df.SatMask(logic.And(f.PullUp, f.PullDown))
			if m == 0 {
				continue
			}
			r.emit(ctx, c.NodeName(f.Node), ctx.nodeLoc(f.Node),
				"node %s can be driven from VDD and VSS at once under %s (phase-reachable drive fight)",
				c.NodeName(f.Node), df.MaskString(m))
		}
	}
}

// ---------------------------------------------------------------- FCV015

// checkChargeSharing flags keeperless dynamic nodes whose evaluate tree
// has internal nodes: at the start of evaluate, charge redistributes
// between the precharged output and the uncharged internal diffusions
// (§4.2's "glitch sensitive nodes"), and with no keeper nothing
// restores the level. When the deck carries explicit node capacitances
// the warning is suppressed if the internal capacitance is a small
// fraction of the output's.
func checkChargeSharing(r *rule, ctx *Context) {
	df := ctx.Dataflow()
	c := ctx.Circuit
	for _, dn := range df.DynNodes() {
		if dn.Kind != dataflow.KindDomino || dn.Keeper != nil || len(dn.Internal) == 0 {
			continue
		}
		outCap := c.Nodes[dn.Node].CapFF
		intCap := 0.0
		for _, n := range dn.Internal {
			intCap += c.Nodes[n].CapFF
		}
		if outCap > 0 && intCap > 0 && intCap/outCap < chargeShareRatio {
			continue
		}
		names := make([]string, len(dn.Internal))
		for i, n := range dn.Internal {
			names[i] = c.NodeName(n)
		}
		r.emit(ctx, c.NodeName(dn.Node), ctx.nodeLoc(dn.Node),
			"keeperless dynamic node %s shares charge with internal evaluate node(s) %v",
			c.NodeName(dn.Node), names)
	}
}

// ---------------------------------------------------------------- FCV016

// checkRatioedStrength flags ratioed (pseudo-nMOS style) outputs whose
// switched network does not decisively overpower the always-on load.
// The output's low level is set by a resistive divider; the weakest
// switched path must beat the strongest load path by the configured
// margin or the level degrades into the receiver's threshold window.
func checkRatioedStrength(r *rule, ctx *Context) {
	df := ctx.Dataflow()
	c := ctx.Circuit
	for _, g := range ctx.Rec.Groups {
		if g.Family != recognize.FamilyRatioed {
			continue
		}
		for _, f := range g.Funcs {
			paths := df.DrivePaths(g, f.Node)
			maxLoad, minDrive := 0.0, 0.0
			for _, p := range paths {
				if !p.FromVdd && !p.FromVss {
					continue
				}
				s := pathStrength(p)
				if s <= 0 {
					continue
				}
				if alwaysOnPath(c, p) {
					if s > maxLoad {
						maxLoad = s
					}
				} else if minDrive == 0 || s < minDrive {
					minDrive = s
				}
			}
			if maxLoad == 0 || minDrive == 0 {
				continue
			}
			if minDrive >= ratioedMinStrength*maxLoad {
				continue
			}
			r.emit(ctx, c.NodeName(f.Node), ctx.nodeLoc(f.Node),
				"ratioed node %s: weakest switched path strength %.3g does not overpower the always-on load %.3g by the required ×%.3g margin",
				c.NodeName(f.Node), minDrive, maxLoad, ratioedMinStrength)
		}
	}
}

// pathStrength returns a series conductance proxy for a path:
// 1/Σ(1/(k·W/Leff)) with k=2 for NMOS, k=1 for PMOS (mobility ratio).
func pathStrength(p dataflow.Path) float64 {
	inv := 0.0
	for _, d := range p.Devices {
		k := 1.0
		if d.Type == process.NMOS {
			k = 2.0
		}
		g := k * d.W / d.Leff()
		if g <= 0 {
			return 0
		}
		inv += 1 / g
	}
	if inv == 0 {
		return 0
	}
	return 1 / inv
}

// alwaysOnPath reports that every series device conducts permanently
// (grounded-gate PMOS / vdd-gated NMOS) — a ratioed load path.
func alwaysOnPath(c *netlist.Circuit, p dataflow.Path) bool {
	for _, d := range p.Devices {
		if d.Type == process.NMOS && !c.IsVdd(d.Gate) {
			return false
		}
		if d.Type == process.PMOS && !c.IsVss(d.Gate) {
			return false
		}
	}
	return len(p.Devices) > 0
}

// ---------------------------------------------------------------- FCV017

// checkPhaseFloat flags nets that are driven under some phase
// assignments but float for every input under others, with no
// recognized storage (latch, domino, C²MOS hold) excusing it — a
// tristate enabled by the wrong phase, or a pass network whose steering
// collapses in one phase. The value the floating phase reads is
// whatever charge is left.
func checkPhaseFloat(r *rule, ctx *Context) {
	df := ctx.Dataflow()
	if df.Degraded() || len(df.PhaseNames) == 0 {
		return
	}
	c := ctx.Circuit
	if len(c.Ports) == 0 {
		return // element soup: every net could be externally driven
	}
	for _, id := range ctx.gateNets() {
		if c.IsSupply(id) || c.Nodes[id].IsPort {
			continue
		}
		gi, ok := ctx.Rec.DriverOf[id]
		if !ok {
			continue
		}
		if df.DynHeld(id) != nil || ctx.Rec.IsState(id) || df.LatchMember(gi) {
			continue
		}
		g := ctx.Rec.Groups[gi]
		if f := g.Func(id); f != nil && f.Complementary {
			continue
		}
		paths := df.DrivePaths(g, id)
		if len(paths) == 0 {
			continue // FCV002's problem, not a phase problem
		}
		conds := make([]logic.Expr, 0, len(paths))
		for _, p := range paths {
			conds = append(conds, p.Cond)
		}
		drive := logic.Or(conds...)
		driven := df.SatMask(drive)
		floating := df.AllMask() &^ driven
		if driven == 0 || floating == 0 {
			continue
		}
		r.emit(ctx, c.NodeName(id), ctx.nodeLoc(id),
			"node %s is driven under %s but floats for every input under %s with no recognized storage holding it",
			c.NodeName(id), df.MaskString(driven), df.MaskString(floating))
	}
}

// ---------------------------------------------------------------- FCV018

// checkDeadDrivers upgrades floating-gate detection with reachability:
// a gate net whose every DC path to a rail or port runs through a
// permanently-off device (NMOS gated by vss, PMOS gated by vdd). FCV001
// sees a channel connection and stays quiet; FCV002 sees the path
// exists; only conduction-aware reachability notices the net can never
// actually be driven.
func checkDeadDrivers(r *rule, ctx *Context) {
	c := ctx.Circuit
	conducts := func(d *netlist.Device) bool { return dataflow.CanConduct(c, d) }
	for _, id := range ctx.gateNets() {
		if c.IsSupply(id) || c.Nodes[id].IsPort || len(ctx.adj.Channel(id)) == 0 {
			continue
		}
		if !ctx.reachesDrive(id, nil) {
			continue // FCV002 already reported the missing path
		}
		if ctx.reachesDrive(id, conducts) {
			continue
		}
		r.emit(ctx, c.NodeName(id), ctx.nodeLoc(id),
			"every DC path from gate net %s to a rail or port runs through a permanently-off device", c.NodeName(id))
	}
}
