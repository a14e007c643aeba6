package checks

import (
	"fmt"
	"math"

	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/recognize"
)

// checkBetaRatio — "Beta ratio and device size checks of all
// complementary and ratioed structures."
//
// For complementary groups, the pull-up/pull-down strength ratio should
// sit near the mobility-compensating ideal so both edges have comparable
// drive; extreme skew signals a sizing mistake. For ratioed groups, the
// intended winner must overpower the load decisively or the output low
// level rises into the receiver's threshold.
func checkBetaRatio(rec *recognize.Result, opt *Options, sh *shared) {
	p := opt.Proc
	c := rec.Circuit
	for _, g := range rec.Groups {
		switch g.Family {
		case recognize.FamilyStaticCMOS:
			for _, f := range g.Funcs {
				up := bestPathCond(rec, g, f.Node, c.FindNode(netlist.VddName), p)
				down := bestPathCond(rec, g, f.Node, c.FindNode(netlist.VssName), p)
				if up == 0 || down == 0 {
					continue
				}
				ratio := up / down
				// Normalized margin: 1 at perfect balance, 0 at 4×
				// skew either way.
				skew := math.Abs(math.Log2(ratio)) // 0 balanced, 2 at 4×
				margin := 1 - skew/2
				sh.emit(c.NodeName(f.Node), verdictFromMargin(margin, 0.25), margin, func() string {
					return fmt.Sprintf("complementary drive ratio up/down = %.2f", ratio)
				})
			}
		case recognize.FamilyRatioed:
			for _, f := range g.Funcs {
				up := bestPathCond(rec, g, f.Node, c.FindNode(netlist.VddName), p)
				down := bestPathCond(rec, g, f.Node, c.FindNode(netlist.VssName), p)
				if up == 0 || down == 0 {
					continue
				}
				// The switching network must beat the always-on load
				// by ≥3× for a solid low (or high) level.
				strongOverWeak := math.Max(up, down) / math.Min(up, down)
				margin := (strongOverWeak - 2) / 2 // 0 at 2×, 0.5 at 3×, 1 at 4×
				sh.emit(c.NodeName(f.Node), verdictFromMargin(margin, 0.5), margin, func() string {
					return fmt.Sprintf("ratioed fight %.2f:1 (driver:load)", strongOverWeak)
				})
			}
		}
	}
}

// bestPathCond returns the strongest (highest-conductance) path from the
// node to the rail, in µA/V-ish drive units (Idsat-based), 0 if none.
func bestPathCond(rec *recognize.Result, g *recognize.Group, from, to netlist.NodeID, p *process.Process) float64 {
	best := 0.0
	for _, path := range rec.ChannelPaths(g, from, to) {
		r := 0.0
		for _, d := range path {
			r += p.Reff(d.Type, d.Vt, d.W, d.Leff(), process.Typical)
		}
		if r > 0 {
			if cond := 1 / r; cond > best {
				best = cond
			}
		}
	}
	return best * 1e6 // 1/Ω → µS for readable magnitudes
}

// checkEdgeRate — "Edge rate and delay analysis for clocks and signals."
//
// A node's output transition time is R_drv·C_load; edges slower than a
// few FO4 delays cause short-circuit current in receivers and widen the
// noise-susceptibility window.
func checkEdgeRate(rec *recognize.Result, opt *Options, sh *shared) {
	p := opt.Proc
	c := rec.Circuit
	fo4 := p.FO4ps(process.Typical)
	loads := sh.loads
	for _, g := range rec.Groups {
		for _, f := range g.Funcs {
			up := bestPathCond(rec, g, f.Node, c.FindNode(netlist.VddName), p)
			down := bestPathCond(rec, g, f.Node, c.FindNode(netlist.VssName), p)
			cond := math.Max(up, down)
			weak := math.Min(up, down)
			if weak > 0 {
				cond = weak // slowest edge governs
			}
			if cond == 0 {
				continue
			}
			r := 1e6 / cond // µS → Ω
			edge := 2.2 * r * loads[f.Node] * 1e-3
			// Margin 1 at ≤4 FO4, 0 at 10 FO4.
			margin := (10*fo4 - edge) / (6 * fo4)
			if margin > 1 {
				margin = 1
			}
			sh.emit(c.NodeName(f.Node), verdictFromMargin(margin, 0.35), margin, func() string {
				return fmt.Sprintf("worst edge %.0f ps (%.1f FO4)", edge, edge/fo4)
			})
		}
	}
}

// checkLatch — "Latch checks." Every recognized state loop must be
// clocked or be a deliberate keeper (static loop of exactly two
// complementary groups); anything else is reported for inspection.
func checkLatch(rec *recognize.Result, opt *Options, sh *shared) {
	c := rec.Circuit
	for i, l := range rec.Latches {
		subject := latchSubject(c, sh.sigs, i, l.StateNodes)
		switch {
		case len(l.Clocks) > 0:
			sh.emit(subject, Pass, 1, func() string {
				return fmt.Sprintf("clocked by %s, %d state nodes", c.NodeName(l.Clocks[0]), len(l.StateNodes))
			})
		case l.Static && len(l.Groups) == 2:
			sh.emit(subject, Pass, 0.8, func() string { return "unclocked cross-coupled keeper" })
		case l.Static:
			sh.emit(subject, Inspect, 0.2, func() string {
				return fmt.Sprintf("unclocked static loop through %d groups", len(l.Groups))
			})
		default:
			// An unclocked loop with members the recognizer could not
			// classify is not a *proven* failure — it is exactly the
			// "might have a problem" bucket: the designer must look.
			sh.emit(subject, Inspect, 0, func() string {
				return "unclocked loop containing non-static or unrecognized logic"
			})
		}
	}
}

// checkWritability — "State-element writability and noise margin
// analysis." For each latch, the write path through its clocked pass
// devices must overpower the keeper's feedback drive; a keeper that wins
// makes the latch unwritable.
func checkWritability(rec *recognize.Result, opt *Options, sh *shared) {
	p := opt.Proc
	c := rec.Circuit
	for i, l := range rec.Latches {
		subject := latchSubject(c, sh.sigs, i, l.StateNodes)
		if len(l.Clocks) == 0 {
			continue // keeper loops are written by overdrive; latch check covers them
		}
		// Write strength: strongest clocked pass device on a state node.
		write := 0.0
		var stateNode netlist.NodeID = netlist.InvalidNode
		for _, sn := range l.StateNodes {
			for _, d := range sh.adj.Channel(sn) {
				if !rec.IsClock(d.Gate) {
					continue
				}
				cond := 1 / p.Reff(d.Type, d.Vt, d.W, d.Leff(), process.Slow)
				if cond > write {
					write = cond
					stateNode = sn
				}
			}
		}
		if stateNode == netlist.InvalidNode {
			sh.emit(subject, Inspect, 0.1, func() string { return "no clocked write device found on state nodes" })
			continue
		}
		// Keeper strength: strongest unclocked drive onto that node at
		// the fast corner (keeper fights hardest when fast).
		keeper := 0.0
		for _, gi := range l.Groups {
			g := rec.Groups[gi]
			for _, rail := range []netlist.NodeID{c.FindNode(netlist.VddName), c.FindNode(netlist.VssName)} {
				for _, path := range rec.ChannelPaths(g, stateNode, rail) {
					clocked := false
					r := 0.0
					for _, d := range path {
						if rec.IsClock(d.Gate) {
							clocked = true
						}
						r += p.Reff(d.Type, d.Vt, d.W, d.Leff(), process.Fast)
					}
					if clocked || r == 0 {
						continue
					}
					if cond := 1 / r; cond > keeper {
						keeper = cond
					}
				}
			}
		}
		if keeper == 0 {
			sh.emit(subject, Pass, 1, func() string { return "dynamic storage node (no keeper to fight)" })
			continue
		}
		ratio := write / keeper
		// Margin 0 at 1.5× (barely writable), 1 at 3×.
		margin := (ratio - 1.5) / 1.5
		if margin > 1 {
			margin = 1
		}
		sh.emit(subject, verdictFromMargin(margin, 0.3), margin, func() string {
			return fmt.Sprintf("write:keeper strength %.2f:1", ratio)
		})
	}
}

// latchSubject names latch i by the state node with the smallest
// structural label. That node signs the finding ID (sigSubject), so
// picking it by label rather than by node order keeps the ID when the
// deck's elements are reordered.
func latchSubject(c *netlist.Circuit, sigs *netlist.Signatures, i int, state []netlist.NodeID) string {
	if len(state) == 0 {
		return fmt.Sprintf("latch#%d(?)", i)
	}
	rep := state[0]
	for _, n := range state[1:] {
		if sigs.SubjectSig(c.NodeName(n)) < sigs.SubjectSig(c.NodeName(rep)) {
			rep = n
		}
	}
	return fmt.Sprintf("latch#%d(%s)", i, c.NodeName(rep))
}
