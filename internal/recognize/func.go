package recognize

import (
	"math/bits"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/process"
)

// maxPathDevices bounds path enumeration: CCCs in real full-custom logic
// are small (a complex gate is tens of devices); beyond this the
// recognizer reports FamilyUnknown rather than blow up, which the CBV
// flow surfaces for designer inspection.
const maxPathDevices = 64

// maxFuncVars bounds the distinct gate nets a deduced function may
// involve before the recognizer gives up on a functional abstraction:
// BDD analysis of wide wired structures (bit columns, buses) is
// exponential in the worst case, and no hand-designed gate has dozens
// of inputs. Past the bound the node keeps no Function and the group
// degrades toward FamilyUnknown.
const maxFuncVars = 18

// maxPaths bounds the number of simple conduction paths enumerated per
// (output, rail) pair. Star-shaped structures (shared bitlines, wide
// wired buses) can have combinatorially many simple paths; past this cap
// the function is abandoned and the group degrades to FamilyUnknown —
// conservative, never wrong.
const maxPaths = 96

// groupBDD is one group's BDD manager and its outputs' conduction
// functions as refs in it: refs[i] holds the pull-up and pull-down of
// Group.Funcs[i]. Analyze keeps one per group in a side table that is
// dropped on return, so no BDD state is reachable from a Result.
type groupBDD struct {
	m    *logic.BDD
	refs []pullRefs
}

// pullRefs is one output's pull-up and pull-down.
type pullRefs struct{ up, down logic.Ref }

// deriveFuncs computes the pull-up and pull-down conduction functions of
// every output node by enumerating simple source/drain paths to the
// rails. A device contributes its gate literal: an NMOS conducts when
// its gate is high (variable), a PMOS when low (negated variable); gates
// tied to rails contribute constants. Each function is built once, as an
// expression for the Result and as a ref in the group's manager gb, and
// the output flags are answered on the refs. w is the walker Analyze
// shares across groups.
func (g *Group) deriveFuncs(c *netlist.Circuit, clocks map[netlist.NodeID]bool, gb *groupBDD, w *pathWalker) {
	if len(g.Devices) > maxPathDevices {
		// Too large to enumerate; leave Funcs nil → FamilyUnknown.
		return
	}
	vdd, vss := c.FindNode(netlist.VddName), c.FindNode(netlist.VssName)
	w.reset(g)
	for _, out := range g.Outputs {
		up, upPaths, okUp := w.conduction(out, vdd, w.upPaths[:0])
		down, downPaths, okDown := w.conduction(out, vss, w.downPaths[:0])
		w.upPaths, w.downPaths = upPaths, downPaths
		if !okUp || !okDown {
			continue // path blow-up: no clean abstraction for this node
		}
		if len(logic.Vars(logic.Or(logic.And(up, logic.False), up, down))) > maxFuncVars {
			continue // support blow-up: BDD analysis would be unbounded
		}
		if gb.m == nil {
			gb.m = logic.NewBDD()
		}
		m := gb.m
		pr := pullRefs{w.ref(m, upPaths), w.ref(m, downPaths)}
		f := &OutputFunc{
			Node:     out,
			PullUp:   up,
			PullDown: down,
		}
		f.Complementary = pr.up == m.Not(pr.down)
		f.CanFloat = m.And(m.Not(pr.up), m.Not(pr.down)) != logic.RefFalse
		f.CanFight = m.And(pr.up, pr.down) != logic.RefFalse
		f.Function = nodeFunction(c, f, clocks)
		g.Funcs = append(g.Funcs, f)
		gb.refs = append(gb.refs, pr)
	}
}

// nodeFunction returns an output's logic function: ¬PullDown for a
// complementary node; for a non-fighting one, the evaluate-phase
// abstraction for clocked logic — with all clocks asserted (evaluate), a
// non-fighting node computes ¬pulldown when driven; this is the domino
// convention. A fighting node has no function here (nil). Only this
// field depends on the clock set.
func nodeFunction(c *netlist.Circuit, f *OutputFunc, clocks map[netlist.NodeID]bool) logic.Expr {
	switch {
	case f.Complementary:
		return logic.Not(f.PullDown)
	case f.CanFight:
		return nil
	}
	eval := f.PullDown
	for ck := range clocks {
		eval = logic.Substitute(eval, c.NodeName(ck), logic.True)
	}
	return logic.Not(eval)
}

// pathWalker enumerates a group's simple conduction paths. Each device's
// gate literal is computed once per group, and a path is recorded as the
// bitmask of its devices' positions in Group.Devices, which fits one
// uint64 because deriveFuncs stops above maxPathDevices. One walker
// serves every group of an Analyze call, reusing its buffers.
type pathWalker struct {
	c       *netlist.Circuit
	devs    []*netlist.Device
	lits    []logic.Expr // gate literal per device
	litRefs []logic.Ref  // lits[i] in the group's manager; -1 until built

	// Path-mask buffers reused across outputs.
	upPaths, downPaths []uint64

	// State of the current conduction call.
	from, to netlist.NodeID
	stack    []logic.Expr // literals along the path being walked
	terms    []logic.Expr
	paths    []uint64
	overflow bool
}

// reset points the walker at group g and computes its gate literals.
func (w *pathWalker) reset(g *Group) {
	w.devs = g.Devices
	w.lits, w.litRefs = w.lits[:0], w.litRefs[:0]
	for _, d := range g.Devices {
		w.lits = append(w.lits, gateLiteral(w.c, d))
		w.litRefs = append(w.litRefs, -1)
	}
}

// conduction returns the boolean condition under which a conducting
// source/drain path exists from node `from` to rail `to`, as an OR over
// simple paths of ANDs of gate literals, and appends the device mask of
// each path to dst. ok is false when enumeration exceeds maxPaths.
func (w *pathWalker) conduction(from, to netlist.NodeID, dst []uint64) (expr logic.Expr, paths []uint64, ok bool) {
	if to == netlist.InvalidNode {
		return logic.False, dst, true
	}
	w.from, w.to = from, to
	w.terms, w.paths, w.overflow = w.terms[:0], dst, false
	w.walk(from, 0)
	if w.overflow {
		return nil, w.paths, false
	}
	return logic.Or(w.terms...), w.paths, true
}

// walk extends the current path from node at, visiting devices in
// group order so terms come out in the same order on every run.
func (w *pathWalker) walk(at netlist.NodeID, used uint64) {
	for i, d := range w.devs {
		bit := uint64(1) << i
		if used&bit != 0 {
			continue
		}
		var next netlist.NodeID
		switch at {
		case d.Source:
			next = d.Drain
		case d.Drain:
			next = d.Source
		default:
			continue
		}
		lit := w.lits[i]
		if lit == logic.False {
			continue // permanently-off device cannot conduct
		}
		if next == w.to {
			if len(w.terms) >= maxPaths {
				w.overflow = true
				return
			}
			// And copies its operands, so the stack's spare capacity
			// serves as the term's scratch.
			w.terms = append(w.terms, logic.And(append(w.stack, lit)...))
			w.paths = append(w.paths, used|bit)
			continue
		}
		// Stop at any other rail or already-visited node.
		if w.c.IsSupply(next) || w.onPath(next, used) {
			continue
		}
		w.stack = append(w.stack, lit)
		w.walk(next, used|bit)
		w.stack = w.stack[:len(w.stack)-1]
		if w.overflow {
			return
		}
	}
}

// onPath reports whether node n is already on the current path: the
// start node or a terminal of a device the path uses.
func (w *pathWalker) onPath(n netlist.NodeID, used uint64) bool {
	if n == w.from {
		return true
	}
	for ; used != 0; used &= used - 1 {
		d := w.devs[bits.TrailingZeros64(used)]
		if d.Source == n || d.Drain == n {
			return true
		}
	}
	return false
}

// ref builds the OR over paths of the AND of their devices' gate
// literals in manager m.
func (w *pathWalker) ref(m *logic.BDD, paths []uint64) logic.Ref {
	sum := logic.RefFalse
	for _, p := range paths {
		term := logic.RefTrue
		for ; p != 0; p &= p - 1 {
			term = m.Ite(term, w.literalRef(m, bits.TrailingZeros64(p)), logic.RefFalse)
		}
		sum = m.Ite(term, logic.RefTrue, sum)
	}
	return sum
}

// literalRef returns device i's gate literal in manager m.
func (w *pathWalker) literalRef(m *logic.BDD, i int) logic.Ref {
	if w.litRefs[i] < 0 {
		w.litRefs[i] = m.FromExpr(w.lits[i])
	}
	return w.litRefs[i]
}

// gateLiteral returns the conduction literal of a device: the condition
// on its gate net under which the channel conducts.
func gateLiteral(c *netlist.Circuit, d *netlist.Device) logic.Expr {
	switch {
	case c.IsVdd(d.Gate):
		if d.Type == process.NMOS {
			return logic.True // always-on NMOS
		}
		return logic.False // permanently-off PMOS
	case c.IsVss(d.Gate):
		if d.Type == process.NMOS {
			return logic.False
		}
		return logic.True // grounded-gate PMOS: always-on (ratioed load)
	}
	v := logic.Var(c.NodeName(d.Gate))
	if d.Type == process.NMOS {
		return v
	}
	return logic.Not(v)
}
