package checks

import (
	"fmt"
	"strconv"

	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/recognize"
)

// checkSupplyDifference — Figure 3's third source: "power supply voltage
// differences between the driver and receiver circuits."
//
// A driver in a sagging supply domain produces a high level below the
// receiver's vdd; the difference eats directly into the receiver's noise
// margin, and into a dynamic node's retention margin. Domains come from
// node "supply_domain" attributes plus the per-domain IR drop table in
// Options; the check evaluates every driver→receiver gate crossing.
func checkSupplyDifference(rec *recognize.Result, opt *Options, sh *shared) {
	if len(opt.SupplyDropMV) == 0 {
		return // no IR-drop extraction available: nothing to check
	}
	p := opt.Proc
	c := rec.Circuit
	vtn := p.Vt(process.NMOS, process.StandardVt, process.Fast)
	domainOf := func(gi int) string {
		// A group's domain is the first annotated device terminal's
		// domain; unannotated groups sit in the core domain "".
		for _, d := range rec.Groups[gi].Devices {
			for _, t := range []netlist.NodeID{d.Gate, d.Source, d.Drain} {
				if dom, ok := c.Nodes[t].Attrs["supply_domain"]; ok {
					return dom
				}
			}
		}
		return ""
	}
	dynOrState := make(map[netlist.NodeID]bool)
	for _, id := range rec.DynamicNodes {
		dynOrState[id] = true
	}
	for _, id := range rec.StateNodes {
		dynOrState[id] = true
	}
	for gi, g := range rec.Groups {
		recvDomain := domainOf(gi)
		for _, in := range g.Inputs {
			drv := rec.GroupDriving(in)
			if drv == nil {
				continue
			}
			drvDomain := domainOf(drv.Index)
			if drvDomain == recvDomain {
				continue
			}
			dropMV := opt.SupplyDropMV[drvDomain] - opt.SupplyDropMV[recvDomain]
			if dropMV <= 0 {
				continue // driver domain is at or above the receiver's
			}
			dv := dropMV / 1000
			// Budget: static receivers tolerate ~Vt of high-level sag;
			// dynamic/state receivers only a fraction (the sag adds to
			// every other Figure 3 source).
			limit := vtn
			subjectKind := "static"
			if anyDynamicOutput(g, dynOrState) {
				limit = vtn / 2
				subjectKind = "dynamic"
			}
			margin := (limit - dv) / limit
			sh.emit(c.NodeName(in), verdictFromMargin(margin, 0.3), margin, func() string {
				return fmt.Sprintf("%s receiver in %q driven from %q: ΔV=%.0f mV (budget %.0f mV)",
					subjectKind, orCore(recvDomain), orCore(drvDomain), dropMV, limit*1000)
			})
		}
	}
}

// anyDynamicOutput reports whether any group output is dynamic or state.
func anyDynamicOutput(g *recognize.Group, dyn map[netlist.NodeID]bool) bool {
	for _, o := range g.Outputs {
		if dyn[o] {
			return true
		}
	}
	return false
}

// orCore names the default domain.
func orCore(d string) string {
	if d == "" {
		return "core"
	}
	return d
}

// qCollectFC is the collected charge of a particle strike in fC, the
// typical alpha deposit of the era.
const qCollectFC = 50.0

// checkParticle — Figure 3's substrate source: "Alpha particle and noise
// induced minority carrier charge collection from the substrate and
// wells."
//
// A particle strike deposits charge on a junction; if the node's critical
// charge Qcrit = C·Vdd/2 is below the collected-charge magnitude, the
// stored value flips. Only floating (dynamic/state) nodes matter — a
// driven node is restored.
func checkParticle(rec *recognize.Result, opt *Options, sh *shared) {
	p := opt.Proc
	c := rec.Circuit
	loads := sh.loads
	victims := append(append([]netlist.NodeID{}, rec.DynamicNodes...), rec.StateNodes...)
	seen := make(map[netlist.NodeID]bool)
	for _, id := range victims {
		if seen[id] {
			continue
		}
		seen[id] = true
		// A complementary-driven node is restored after a strike; only
		// nodes that actually float (dynamic nodes, pass-gate storage)
		// can lose state to deposited charge.
		if g := rec.GroupDriving(id); g != nil {
			if f := g.Func(id); f != nil && f.Complementary {
				continue
			}
		}
		// Qcrit in fC: C[fF]·V/2.
		qcrit := loads[id] * p.Vdd / 2
		// Margin 1 at Qcrit ≥ 3×Qcollect, 0 at equality.
		margin := (qcrit - qCollectFC) / (2 * qCollectFC)
		if margin > 1 {
			margin = 1
		}
		override := ""
		if s, ok := c.Nodes[id].Attrs["ser_hardened"]; ok {
			if v, err := strconv.ParseFloat(s, 64); err == nil {
				qcrit += v
				margin = (qcrit - qCollectFC) / (2 * qCollectFC)
				override = " (hardening credit applied)"
			}
		}
		// Soft errors are a *rate*, not a deterministic failure: like
		// the electromigration "statistical failures" category, the
		// worst verdict here is Inspect — the designer decides whether
		// the SER budget tolerates the node or it needs hardening.
		verdict := verdictFromMargin(margin, 0.25)
		if verdict == Violation {
			verdict = Inspect
		}
		sh.emit(c.NodeName(id), verdict, margin, func() string {
			return fmt.Sprintf("Qcrit %.1f fC vs Qcollect %.0f fC%s", qcrit, qCollectFC, override)
		})
	}
}
