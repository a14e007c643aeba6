package switchsim

// The dirty-component worklist in Settle is a pure scheduling
// optimisation: it must produce bit-identical node states to the classic
// full-sweep relaxation it replaced. These tests pin that equivalence by
// driving two sims — one settled by the worklist, one by the settleFull
// reference schedule — through identical stimulus and requiring
// identical snapshots after every step.

import (
	"fmt"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
)

// refSettle applies a stimulus step to the reference sim using the
// full-sweep schedule (SetQuiet marks dirty; settleFull ignores and
// clears the marks).
func refSet(s *Scalar, name string, v Value) {
	s.SetQuiet(name, v)
	s.settleFull()
}

func refRelease(s *Scalar, name string) {
	id := s.c.FindNode(name)
	if id == netlist.InvalidNode || s.c.IsSupply(id) {
		return
	}
	s.driven[id] = false
	s.settleFull()
}

// simOp is one stimulus step: set a node or release it.
type simOp struct {
	name    string
	v       Value
	release bool
}

func set(name string, v Value) simOp { return simOp{name: name, v: v} }
func release(name string) simOp      { return simOp{name: name, release: true} }

// runEquiv drives a worklist sim and a full-sweep sim through the ops,
// comparing full snapshots after the initial settle and after each op.
func runEquiv(t *testing.T, build func() *netlist.Circuit, ops []simOp) {
	t.Helper()
	w := newScalar(t, build())
	ref := newScalar(t, build())
	w.Settle()
	ref.settleFull()
	compareSnapshots(t, "initial settle", w, ref)
	for i, op := range ops {
		var label string
		if op.release {
			w.Release(op.name)
			refRelease(ref, op.name)
			label = fmt.Sprintf("op %d: release %s", i, op.name)
		} else {
			w.Set(op.name, op.v)
			refSet(ref, op.name, op.v)
			label = fmt.Sprintf("op %d: set %s=%s", i, op.name, op.v)
		}
		compareSnapshots(t, label, w, ref)
	}
}

func compareSnapshots(t *testing.T, label string, w, ref *Scalar) {
	t.Helper()
	ws, rs := w.Snapshot(), ref.Snapshot()
	for name, rv := range rs {
		if wv := ws[name]; wv != rv {
			t.Errorf("%s: node %s: worklist=%s full-sweep=%s", label, name, wv, rv)
		}
	}
	if t.Failed() {
		t.Fatalf("%s: worklist diverged from full-sweep reference", label)
	}
}

func TestWorklistMatchesFullSweepDominoAdder(t *testing.T) {
	n := 8
	var ops []simOp
	// Precharge phase with a full input vector.
	ops = append(ops, set("phi1", Lo))
	for i := 0; i < n; i++ {
		ops = append(ops, set(fmt.Sprintf("a%d", i), Bool(i%2 == 0)))
		ops = append(ops, set(fmt.Sprintf("b%d", i), Bool(i%3 == 0)))
	}
	ops = append(ops,
		set("cin", Lo),
		set("phi1", Hi), // evaluate: carries ripple through the domino chain
		set("phi1", Lo), // precharge again
		set("a0", Hi), set("b0", Hi), set("cin", Hi),
		set("phi1", Hi), // evaluate a different vector
		set("a3", X),    // X-propagation mid-evaluate
		set("phi1", Lo),
	)
	runEquiv(t, func() *netlist.Circuit { return designs.DominoAdder(n) }, ops)
}

func TestWorklistMatchesFullSweepPassMux(t *testing.T) {
	n := 8
	var ops []simOp
	// All selects off, inputs driven: the shared node m floats.
	for i := 0; i < n; i++ {
		ops = append(ops, set(fmt.Sprintf("s%d", i), Lo))
		ops = append(ops, set(fmt.Sprintf("sn%d", i), Hi))
		ops = append(ops, set(fmt.Sprintf("in%d", i), Bool(i%2 == 1)))
	}
	ops = append(ops,
		// Select input 3 (Hi), then switch to input 4 (Lo).
		set("s3", Hi), set("sn3", Lo),
		set("s3", Lo), set("sn3", Hi),
		set("s4", Hi), set("sn4", Lo),
		// Release the selected input: m holds charge through the gate.
		release("in4"),
		// Half-select with an X on the select line.
		set("s4", Lo), set("sn4", Hi),
		set("s5", X), set("sn5", X),
		set("in5", Hi),
	)
	runEquiv(t, func() *netlist.Circuit { return designs.PassMux(n) }, ops)
}

// fightCircuit builds a node contested by two pass devices from two
// driven sources plus a ratioed pseudo-NMOS stage, so stimulus can walk
// it through resolved fights, X-gated maybe-conduction, and
// strength-ratio resolution — the resolveFight/compStrength paths.
func fightCircuit() *netlist.Circuit {
	c := netlist.New("fightcase")
	for _, p := range []string{"d1", "d2", "g1", "g2", "en"} {
		c.DeclarePort(p)
	}
	// Wide vs. narrow pass devices onto the contested node m: the wide
	// side wins a direct fight by more than strengthRatio.
	c.NMOS("m1", "g1", "d1", "m", 4.0, 0.1)
	c.NMOS("m2", "g2", "d2", "m", 0.5, 0.1)
	// Pseudo-NMOS stage on m: grounded-gate PMOS load fighting a driven
	// pulldown — a designed rail-to-rail fight.
	c.PMOS("load", "vss", "vdd", "q", 0.4, 0.1)
	c.NMOS("pull", "m", "q", "vss", 4.0, 0.1)
	// Observer inverter so X-propagation out of the fight is visible.
	designs.AddInverter(c, "obs", "q", "y", 1.0, 2.0)
	c.DeclarePort("y")
	return c
}

func TestWorklistMatchesFullSweepXFight(t *testing.T) {
	ops := []simOp{
		// Both pass gates on, sources disagree: wide side (d1=Hi) wins.
		set("d1", Hi), set("d2", Lo),
		set("g1", Hi), set("g2", Hi),
		// X on the strong gate: maybe-conduction, fight degrades to X
		// and the X walks through the pseudo-NMOS stage to y.
		set("g1", X),
		// Resolve again: strong side off, weak side drives alone.
		set("g1", Lo),
		// Flip the weak source; then X on the source itself.
		set("d2", Hi),
		set("d2", X),
		// Both gates off: m floats and keeps charge.
		set("g2", Lo),
		// Release a driven source while its gate is off (no effect),
		// then re-enable to share charge.
		release("d1"),
		set("g1", Hi),
	}
	runEquiv(t, fightCircuit, ops)
}
