package checks

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/process"
	"repro/internal/recognize"
)

// checkClockRC — "Clock distribution RC analysis. Node-by-node clock RC
// analysis. Correlated minimum/maximum RC analysis."
//
// For each clock net: its total load and any extracted resistance give
// an RC settling constant; clock edges slower than a small fraction of
// the period skew every latch fed by the net. The min/max correlation is
// captured by evaluating at ±tolerance and reporting the worst.
func checkClockRC(rec *recognize.Result, opt *Options, sh *shared) {
	c := rec.Circuit
	loads := sh.loads
	limit := opt.PeriodPS * 0.05 // 5% of the cycle
	const mfgTol = 0.15
	for _, ck := range rec.Clocks {
		var r float64
		for _, res := range sh.adj.Resistors(ck) {
			r += res.Ohms
		}
		if r == 0 {
			r = 50 // minimum plausible distribution resistance
		}
		rcMax := r * (1 + mfgTol) * loads[ck] * (1 + mfgTol) * 1e-3 // ps
		margin := (limit - rcMax) / limit
		sh.emit(c.NodeName(ck), verdictFromMargin(margin, 0.4), margin, func() string {
			return fmt.Sprintf("worst RC %.1f ps vs %.1f ps budget (load %.1f fF)",
				rcMax, limit, loads[ck])
		})
	}
}

// activityFactor is the fraction of cycles a typical node switches, for
// electromigration averaging.
const activityFactor = 0.15

// checkElectromigration — "Electromigration, statistical and absolute
// failures."
//
// The time-averaged current in a driver's output wire is I = C·V·f·AF.
// Compared against the process J limit at an assumed wire width (from
// the node's "wire_width" attribute when extracted, else minimum width):
// the absolute limit is a violation; 70% of it is the statistical
// (cumulative-failure) inspection threshold.
func checkElectromigration(rec *recognize.Result, opt *Options, sh *shared) {
	p := opt.Proc
	c := rec.Circuit
	loads := sh.loads
	fGHz := 1e3 / opt.PeriodPS // period in ps → frequency in GHz
	for _, g := range rec.Groups {
		for _, f := range g.Funcs {
			id := f.Node
			// I_avg: C[fF]·V·f[GHz]·AF gives µA (1e-15 F · 1e9 /s);
			// convert to mA for the J limit.
			iAvgMA := loads[id] * p.Vdd * fGHz * activityFactor * 1e-3
			width := 1.0 // µm, minimum width default
			if w, ok := c.Nodes[id].Attrs["wire_width"]; ok {
				if v, err := strconv.ParseFloat(w, 64); err == nil && v > 0 {
					width = v
				}
			}
			j := iAvgMA / width
			margin := (p.JmaxMA - j) / p.JmaxMA
			// Statistical threshold: inspect above 70% of the limit.
			sh.emit(c.NodeName(id), verdictFromMargin(margin, 0.3), margin, func() string {
				return fmt.Sprintf("J=%.3f mA/µm vs limit %.2f (I=%.3f mA, w=%.1f µm)",
					j, p.JmaxMA, iAvgMA, width)
			})
		}
	}
}

// checkAntenna — "Antenna checks."
//
// During metal etch, a long wire attached to a gate with no diffusion
// discharge path collects plasma charge proportional to its area; the
// metal-to-gate area ratio must stay below the process limit. Ratios
// come from layout extraction (Options.AntennaRatios or node "antenna"
// attributes); unannotated nodes are skipped (nothing to check until
// layout exists).
func checkAntenna(rec *recognize.Result, opt *Options, sh *shared) {
	p := opt.Proc
	c := rec.Circuit
	emit := func(name string, ratio float64) {
		margin := (p.AntennaMaxRatio - ratio) / p.AntennaMaxRatio
		sh.emit(name, verdictFromMargin(margin, 0.25), margin, func() string {
			return fmt.Sprintf("antenna ratio %.0f vs limit %.0f", ratio, p.AntennaMaxRatio)
		})
	}
	// Extraction-supplied ratios first, in node order rather than the
	// map's random one; names of one node (gnd and vss) in name order.
	names := make([]string, 0, len(opt.AntennaRatios))
	for name := range opt.AntennaRatios {
		if c.FindNode(name) != netlistInvalid {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := c.FindNode(names[i]), c.FindNode(names[j])
		if a != b {
			return a < b
		}
		return names[i] < names[j]
	})
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		seen[name] = true
		emit(name, opt.AntennaRatios[name])
	}
	for _, n := range c.Nodes {
		if seen[n.Name] {
			continue
		}
		if s, ok := n.Attrs["antenna"]; ok {
			if v, err := strconv.ParseFloat(s, 64); err == nil {
				emit(n.Name, v)
			}
		}
	}
}

// netlistInvalid mirrors netlist.InvalidNode without another import line.
const netlistInvalid = -1

// checkHotCarrier — "Hot Carrier and Time Dependant Dielectric Breakdown
// checks."
//
// Hot-carrier degradation scales with the peak channel field ≈ Vdd/L;
// TDDB with the oxide field, which tracks Vdd for a given process. The
// filter computes each device's field stress relative to the process's
// design point (nominal Vdd at Lmin) and flags devices pushed beyond it —
// e.g. a device ported from a higher-voltage domain or an L below the
// process minimum.
func checkHotCarrier(rec *recognize.Result, opt *Options, sh *shared) {
	p := opt.Proc
	c := rec.Circuit
	nominal := p.Vdd / p.Lmin
	for _, d := range c.Devices {
		field := p.Vdd / d.Leff()
		rel := field / nominal // ≤1 for L ≥ Lmin
		// Margin 1 at ≤80% of nominal field, 0 at 105%.
		margin := (1.05 - rel) / 0.25
		if margin > 1 {
			margin = 1
		}
		// Only NMOS suffers meaningful hot-carrier stress (electron
		// injection); PMOS gets a 20% relaxation.
		if d.Type == process.PMOS {
			margin = math.Min(1, margin+0.2)
		}
		verdict := verdictFromMargin(margin, 0.2)
		if verdict == Pass {
			// Keep the report small: only emit non-trivial stress.
			if rel < 0.95 {
				continue
			}
		}
		sh.emit(d.Name, verdict, margin, func() string {
			return fmt.Sprintf("channel field %.2f V/µm (%.0f%% of process design point)", field, rel*100)
		})
	}
}
