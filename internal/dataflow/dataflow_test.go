package dataflow

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/recognize"
)

// analyze is the test harness: recognize + dataflow over one circuit.
func analyze(t *testing.T, c *netlist.Circuit) *Analysis {
	t.Helper()
	rec, err := recognize.Analyze(c)
	if err != nil {
		t.Fatalf("recognize: %v", err)
	}
	return Analyze(rec)
}

// c2mosStage builds one C²MOS stage in→out clocked by ck/ckn. If
// miswire is set, the clock PMOS is gated by ck (same polarity as the
// NMOS) instead of ckn.
func c2mosStage(c *netlist.Circuit, name, in, out, ck, ckn string, miswire bool) {
	pClk := ckn
	if miswire {
		pClk = ck
	}
	a, b := name+"_a", name+"_b"
	c.PMOS(name+"_p1", in, a, "vdd", 4, 0.75)
	c.PMOS(name+"_p2", pClk, out, a, 4, 0.75)
	c.NMOS(name+"_n1", ck, b, out, 2, 0.75)
	c.NMOS(name+"_n2", in, "vss", b, 2, 0.75)
}

func TestPhaseFoldingComplementNames(t *testing.T) {
	c := netlist.New("fold")
	for _, p := range []string{"in", "phi1", "phi1_n", "out"} {
		c.DeclarePort(p)
	}
	c2mosStage(c, "s", "in", "out", "phi1", "phi1_n", false)
	a := analyze(t, c)
	if len(a.PhaseNames) != 1 || a.PhaseNames[0] != "phi1" {
		t.Fatalf("phases = %v, want [phi1]", a.PhaseNames)
	}
	n := c.FindNode("phi1_n")
	ref, ok := a.PhaseOf[n]
	if !ok || ref.Phase != 0 || !ref.Inverted {
		t.Errorf("phi1_n ref = %+v ok=%v, want inverted phase 0", ref, ok)
	}
	if got := len(a.Assigns); got != 2 {
		t.Errorf("assignments = %d, want 2", got)
	}
}

func TestPhaseFoldingStructuralInverter(t *testing.T) {
	// clkb is generated by an inverter from clk: structural complement,
	// no naming convention linking the two.
	c := netlist.New("foldinv")
	for _, p := range []string{"in", "clk", "out"} {
		c.DeclarePort(p)
	}
	designs.AddInverter(c, "ci", "clk", "clkb", 2, 4)
	c2mosStage(c, "s", "in", "out", "clk", "clkb", false)
	a := analyze(t, c)
	if len(a.PhaseNames) != 1 || a.PhaseNames[0] != "clk" {
		t.Fatalf("phases = %v, want [clk]", a.PhaseNames)
	}
	ref := a.PhaseOf[c.FindNode("clkb")]
	if ref.Phase != 0 || !ref.Inverted {
		t.Errorf("clkb ref = %+v, want inverted phase 0", ref)
	}
}

func TestNonOverlapAssignments(t *testing.T) {
	c := designs.LatchPipeline(4, false) // phi1/phi2 two-phase
	a := analyze(t, c)
	if len(a.PhaseNames) != 2 {
		t.Fatalf("phases = %v, want [phi1 phi2]", a.PhaseNames)
	}
	// Non-overlap forbids phi1=phi2=1: 3 assignments, not 4.
	if len(a.Assigns) != 3 {
		t.Errorf("assignments = %d, want 3 (non-overlap)", len(a.Assigns))
	}
	for ai := range a.Assigns {
		v1 := a.ClockValue(a.PhaseOf[c.FindNode("phi1")], ai)
		v2 := a.ClockValue(a.PhaseOf[c.FindNode("phi2")], ai)
		if v1 && v2 {
			t.Errorf("assignment %d has both phases high", ai)
		}
	}
}

func TestSatMask(t *testing.T) {
	c := netlist.New("mask")
	for _, p := range []string{"in", "phi1", "phi1_n", "out"} {
		c.DeclarePort(p)
	}
	c2mosStage(c, "s", "in", "out", "phi1", "phi1_n", false)
	a := analyze(t, c)
	// phi1 ∧ in is satisfiable only in the phi1=1 assignment.
	m := a.SatMask(logic.And(logic.Var("phi1"), logic.Var("in")))
	if m == 0 || m == a.AllMask() {
		t.Fatalf("mask = %b, want a strict nonempty subset", m)
	}
	// ¬phi1_n folds to phi1=1: identical mask.
	m2 := a.SatMask(logic.And(logic.Not(logic.Var("phi1_n")), logic.Var("in")))
	if m2 != m {
		t.Errorf("complement-name mask %b != base mask %b", m2, m)
	}
	// A clock contradiction is everywhere-unsat.
	if got := a.SatMask(logic.And(logic.Var("phi1"), logic.Var("phi1_n"))); got != 0 {
		t.Errorf("phi1∧phi1_n mask = %b, want 0", got)
	}
	// Pure data is phase-independent.
	if got := a.SatMask(logic.Var("in")); got != a.AllMask() {
		t.Errorf("data mask = %b, want all", got)
	}
}

func TestDrivePathsInverter(t *testing.T) {
	c := netlist.New("inv")
	c.DeclarePort("a")
	c.DeclarePort("y")
	designs.AddInverter(c, "i", "a", "y", 2, 4)
	a := analyze(t, c)
	g := a.Rec.GroupDriving(c.FindNode("y"))
	paths := a.DrivePaths(g, c.FindNode("y"))
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2 (vdd, vss)", len(paths))
	}
	var up, down bool
	for _, p := range paths {
		if len(p.Devices) != 1 || p.Clocked || !p.HasData || p.External {
			t.Errorf("path %+v: want single unclocked data device", p)
		}
		up = up || p.FromVdd
		down = down || p.FromVss
	}
	if !up || !down {
		t.Errorf("missing rail path: up=%v down=%v", up, down)
	}
}

func TestPathNodesSeries(t *testing.T) {
	c := designs.DominoAdder(2)
	a := analyze(t, c)
	found := false
	for _, dn := range a.DynNodes() {
		if dn.Kind != KindDomino {
			continue
		}
		g := a.Rec.Groups[dn.Group]
		for _, p := range a.DrivePaths(g, dn.Node) {
			if p.FromVss && len(p.Devices) > 1 {
				inter := PathNodes(p)
				if len(inter) != len(p.Devices)-1 {
					t.Errorf("intermediates = %d for %d series devices", len(inter), len(p.Devices))
				}
				found = true
			}
		}
	}
	if !found {
		t.Error("no multi-device evaluate path found in domino adder")
	}
}

func TestClockedStageDetection(t *testing.T) {
	c := netlist.New("stage")
	for _, p := range []string{"in", "phi1", "phi1_n", "out", "plain"} {
		c.DeclarePort(p)
	}
	c2mosStage(c, "s", "in", "out", "phi1", "phi1_n", false)
	designs.AddInverter(c, "i", "in", "plain", 2, 4)
	a := analyze(t, c)
	out := c.FindNode("out")
	if !a.ClockedStage(a.Rec.GroupDriving(out), out) {
		t.Error("C²MOS output not recognized as clocked stage")
	}
	plain := c.FindNode("plain")
	if a.ClockedStage(a.Rec.GroupDriving(plain), plain) {
		t.Error("static inverter misread as clocked stage")
	}
	dn := a.DynHeld(out)
	if dn == nil || dn.Kind != KindC2MOS {
		t.Fatalf("out DynHeld = %+v, want KindC2MOS record", dn)
	}
}

func TestDominoClassification(t *testing.T) {
	c := designs.DominoAdder(2)
	a := analyze(t, c)
	if len(a.DynNodes()) == 0 {
		t.Fatal("no dynamic nodes classified")
	}
	for _, dn := range a.DynNodes() {
		if dn.Kind != KindDomino {
			continue
		}
		if dn.Keeper == nil {
			t.Errorf("domino node %s: keeper not found", c.NodeName(dn.Node))
		}
		if !dn.Footed {
			t.Errorf("domino node %s: not footed", c.NodeName(dn.Node))
		}
		if len(dn.Clocks) == 0 {
			t.Errorf("domino node %s: no clocks", c.NodeName(dn.Node))
		}
		if len(dn.Internal) == 0 {
			t.Errorf("domino node %s: no internal evaluate nodes", c.NodeName(dn.Node))
		}
	}
}

func TestLatchTransparencyAndRaces(t *testing.T) {
	racy := analyze(t, designs.LatchPipeline(4, true))
	if got := len(racy.Latches()); got != 4 {
		t.Fatalf("racy latches = %d, want 4", got)
	}
	for _, l := range racy.Latches() {
		if l.Dynamic {
			t.Errorf("latch %d misread as dynamic", l.Index)
		}
		if l.Transparent == 0 {
			t.Errorf("latch %d never transparent", l.Index)
		}
	}
	races := racy.LatchRaces()
	if len(races) != 3 {
		t.Fatalf("racy pipeline races = %d, want 3 (adjacent pairs)", len(races))
	}
	for _, r := range races {
		if r.Mask == 0 {
			t.Errorf("race %+v with empty mask", r)
		}
	}

	clean := analyze(t, designs.LatchPipeline(4, false))
	if races := clean.LatchRaces(); len(races) != 0 {
		t.Errorf("clean two-phase pipeline has %d races, want 0: %+v", len(races), races)
	}
	// Alternate latches are transparent on disjoint phases.
	ls := clean.Latches()
	if len(ls) != 4 {
		t.Fatalf("clean latches = %d, want 4", len(ls))
	}
}

func TestDegradedBeyondPhaseCap(t *testing.T) {
	c := netlist.New("many")
	c.DeclarePort("in")
	prev := "in"
	for i := 0; i < 8; i++ {
		ck := "phi" + string(rune('1'+i))
		ckn := ck + "_n"
		c.DeclarePort(ck)
		c.DeclarePort(ckn)
		out := "s" + string(rune('0'+i))
		c2mosStage(c, "st"+out, prev, out, ck, ckn, false)
		prev = out
	}
	c.DeclarePort(prev)
	a := analyze(t, c)
	if !a.Degraded() {
		t.Fatalf("8 phases not degraded (phases = %v)", a.PhaseNames)
	}
	if a.LatchRaces() != nil {
		t.Error("degraded analysis still reports races")
	}
}
