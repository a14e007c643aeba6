package checks

import (
	"fmt"
	"slices"

	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/recognize"
)

// checkCoupling — "Coupling analysis of static and dynamic nodes"
// (Figure 3's first noise source: "interconnect capacitance coupling
// that could corrupt the dynamic node").
//
// The injected noise on a quiet victim when an aggressor swings Vdd is
// ΔV = Vdd · Cc / (Cc + Cground). A statically driven victim recovers
// (its driver fights back), so its threshold is generous; a dynamic or
// state node has no restoring drive while floating, so its threshold is
// a fraction of the device threshold voltage.
func checkCoupling(rec *recognize.Result, opt *Options, sh *shared) {
	p := opt.Proc
	c := rec.Circuit
	loads := sh.loads
	vtn := p.Vt(process.NMOS, process.StandardVt, process.Fast)

	// Gather coupling per victim from the extracted data alone: a
	// victim without an Options.Couplings entry gets no finding.
	type agg struct {
		name  string
		capFF float64
	}
	byVictim := make(map[netlist.NodeID][]agg)
	for _, cp := range opt.Couplings {
		id := c.FindNode(cp.Victim)
		if id == netlist.InvalidNode {
			continue
		}
		byVictim[id] = append(byVictim[id], agg{cp.Aggressor, cp.CapFF})
	}

	check := func(id netlist.NodeID, dynamic bool) {
		var couple float64
		var names string
		for _, a := range byVictim[id] {
			couple += a.capFF
			if names != "" {
				names += ","
			}
			names += a.name
		}
		if couple == 0 {
			return
		}
		total := loads[id] + couple
		// Worst case: opposite-direction aggressor (Miller 2×
		// charge transfer is already in the swing ratio; we use the
		// plain charge-divider with full-swing aggressors).
		dv := p.Vdd * couple / total
		threshold := vtn // dynamic: corrupt at Vt
		if !dynamic {
			threshold = p.Vdd * 0.35 // static: restored; generous margin
		}
		margin := (threshold - dv) / threshold
		kind := "static"
		if dynamic {
			kind = "dynamic"
		}
		sh.emit(c.NodeName(id), verdictFromMargin(margin, 0.3), margin, func() string {
			return fmt.Sprintf("%s victim: ΔV=%.2f V from %s (limit %.2f V)", kind, dv, names, threshold)
		})
	}

	dynOrState := make(map[netlist.NodeID]bool)
	for _, id := range rec.DynamicNodes {
		dynOrState[id] = true
	}
	for _, id := range rec.StateNodes {
		dynOrState[id] = true
	}
	// Victims in node order: ranging over the map would make the
	// finding order, and with it any "#n" ID suffix, vary by run.
	victims := make([]netlist.NodeID, 0, len(byVictim))
	for id := range byVictim {
		victims = append(victims, id)
	}
	slices.Sort(victims)
	for _, id := range victims {
		check(id, dynOrState[id])
	}
}

// checkChargeShare — "Dynamic charge share analysis" (Figure 3: "charge
// sharing between the dynamic output node and the internal transistor
// stack nodes").
//
// When the evaluate tree partially opens, the precharged node shares its
// charge with discharged internal nodes: ΔV = Vdd·Cint/(Cint+Cdyn). If
// that droop approaches the output buffer's threshold, the gate falsely
// evaluates.
func checkChargeShare(rec *recognize.Result, opt *Options, sh *shared) {
	p := opt.Proc
	c := rec.Circuit
	loads := sh.loads
	vtn := p.Vt(process.NMOS, process.StandardVt, process.Fast)
	for _, g := range rec.Groups {
		if g.Family != recognize.FamilyDynamic {
			continue
		}
		var cint float64
		for _, id := range g.Internal {
			cint += loads[id]
		}
		for _, f := range g.Funcs {
			cdyn := loads[f.Node]
			if cdyn == 0 {
				continue
			}
			dv := p.Vdd * cint / (cint + cdyn)
			margin := (vtn - dv) / vtn
			// A keeper restores slow charge-share droop; it cannot
			// prove the transient safe (that needs SPICE), so the
			// finding is capped at Inspect rather than Violation —
			// exactly the filter-and-let-the-designer-look posture.
			keeper := rec.Keeper(f.Node) != nil
			note := ""
			verdict := verdictFromMargin(margin, 0.3)
			if keeper && verdict == Violation {
				verdict = Inspect
				if margin < 0 {
					margin = 0
				}
				note = "; keeper present — verify keeper sizing"
			}
			sh.emit(c.NodeName(f.Node), verdict, margin, func() string {
				return fmt.Sprintf("droop %.2f V (Cint %.1f fF vs Cdyn %.1f fF, limit %.2f V)%s",
					dv, cint, cdyn, vtn, note)
			})
		}
	}
}

// checkDynamicLeakage — "Dynamic node leakage checks" (Figure 3:
// "sub-threshold leakage through the N-device network").
//
// A precharged node must hold its level for the whole evaluate window
// against the off-tree's subthreshold leakage: t_hold = C·ΔV_max/I_leak
// must exceed the phase width with margin, or the node needs a keeper
// (§3's leakage concern, applied at circuit grain).
func checkDynamicLeakage(rec *recognize.Result, opt *Options, sh *shared) {
	p := opt.Proc
	c := rec.Circuit
	loads := sh.loads
	vtn := p.Vt(process.NMOS, process.StandardVt, process.Fast)
	halfPeriod := opt.PeriodPS / 2
	for _, g := range rec.Groups {
		if g.Family != recognize.FamilyDynamic {
			continue
		}
		for _, f := range g.Funcs {
			if rec.Keeper(f.Node) != nil {
				sh.emit(c.NodeName(f.Node), Pass, 1, func() string { return "keeper present" })
				continue
			}
			var leak float64 // µA
			for _, d := range sh.adj.Channel(f.Node) {
				if d.Type == process.NMOS {
					leak += p.IleakUA(d.Type, d.Vt, d.W, d.ExtraL, process.Fast)
				}
			}
			if leak == 0 {
				continue
			}
			// Hold time in ps: C[fF]·ΔV[V]/I[µA] → ns·1e3.
			holdPS := loads[f.Node] * vtn / leak * 1e3
			margin := (holdPS - halfPeriod) / (4 * halfPeriod)
			if margin > 5 {
				margin = 5 // cap for readability, keep gradation
			}
			sh.emit(c.NodeName(f.Node), verdictFromMargin(margin, 0.25), margin, func() string {
				return fmt.Sprintf("hold %.0f ps vs evaluate window %.0f ps (leak %.3g µA)",
					holdPS, halfPeriod, leak)
			})
		}
	}
}
