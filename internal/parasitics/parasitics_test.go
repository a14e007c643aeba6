package parasitics

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// AddCoupling adds a coupling capacitance from a node to an aggressor.
func (t *Tree) AddCoupling(name, aggressor string, capFF float64) error {
	i, ok := t.index[name]
	if !ok {
		return fmt.Errorf("parasitics: unknown node %q", name)
	}
	t.nodes[i].Couplings = append(t.nodes[i].Couplings, Coupling{aggressor, capFF})
	return nil
}

// FromTree converts an RC tree (couplings treated as grounded at the
// nominal Miller factor of 1) into a network without sources.
func FromTree(t *Tree) *Network {
	n := NewNetwork()
	for i := range t.nodes {
		tn := &t.nodes[i]
		c := tn.CapFF
		for _, cp := range tn.Couplings {
			c += cp.CapFF
		}
		n.AddCap(tn.Name, c)
		if tn.parent >= 0 {
			r := tn.rOhm
			if r <= 0 {
				r = 1e-3 // an ideal short, numerically
			}
			if err := n.AddRes(t.nodes[tn.parent].Name, tn.Name, r); err != nil {
				panic(err)
			}
		}
	}
	return n
}

// Final returns the node's last sampled voltage.
func (r *TransientResult) Final(node string) float64 {
	w := r.V[node]
	if len(w) == 0 {
		return math.NaN()
	}
	return w[len(w)-1]
}

func TestTreeBuilderErrors(t *testing.T) {
	tr := NewTree("root")
	if err := tr.AddSegment("nope", "a", 1, 1); err == nil {
		t.Error("unknown parent should fail")
	}
	if err := tr.AddSegment("root", "a", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddSegment("root", "a", 1, 1); err == nil {
		t.Error("duplicate node should fail")
	}
	if err := tr.AddSegment("root", "b", -1, 1); err == nil {
		t.Error("negative R should fail")
	}
	if err := tr.AddCap("zz", 1); err == nil {
		t.Error("AddCap unknown node should fail")
	}
	if err := tr.AddCoupling("zz", "agg", 1); err == nil {
		t.Error("AddCoupling unknown node should fail")
	}
}

func TestElmoreSingleSegment(t *testing.T) {
	// Driver R=1kΩ into a single 100 fF cap: delay = 0.69·R·C = 69 ps.
	tr := NewTree("drv")
	if err := tr.AddSegment("drv", "out", 0, 100); err != nil {
		t.Fatal(err)
	}
	d, err := tr.ElmorePS(1000, "out")
	if err != nil {
		t.Fatal(err)
	}
	want := 0.6931 * 1000 * 100 * 1e-3
	if math.Abs(d-want) > 0.1 {
		t.Errorf("Elmore = %g ps, want ≈%g", d, want)
	}
}

func TestElmoreLadderMonotone(t *testing.T) {
	// Downstream sinks must have monotonically increasing delay.
	tr, err := Line(10, 2000, 200)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, sink := range []string{"w1", "w3", "w5", "w9", "out"} {
		d, err := tr.ElmorePS(500, sink)
		if err != nil {
			t.Fatal(err)
		}
		if d <= prev {
			t.Errorf("delay to %s = %g not increasing (prev %g)", sink, d, prev)
		}
		prev = d
	}
}

func TestElmoreBoundsOrdering(t *testing.T) {
	tr, err := Line(5, 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AddCoupling("w2", "aggr", 30); err != nil {
		t.Fatal(err)
	}
	b, err := tr.ElmoreBoundsPS(500, "out", DefaultMiller, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	nom, err := tr.ElmorePS(500, "out")
	if err != nil {
		t.Fatal(err)
	}
	if !(b.Min < nom && nom < b.Max) {
		t.Errorf("bounds [%g, %g] should bracket nominal %g", b.Min, b.Max, nom)
	}
	if b.Max-b.Min <= 0 {
		t.Error("bounds width must be positive with coupling present")
	}
}

func TestCapBounds(t *testing.T) {
	tr := NewTree("r")
	if err := tr.AddSegment("r", "n", 10, 100); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddCoupling("n", "agg", 50); err != nil {
		t.Fatal(err)
	}
	// Quiet aggressor, no tolerance: coupling counts 1×.
	b := tr.NodeCapBounds(1, QuietMiller, 0)
	if b.Min != 150 || b.Max != 150 {
		t.Errorf("quiet bounds = %+v, want 150/150", b)
	}
	// Full Miller window: 100..200.
	b = tr.NodeCapBounds(1, DefaultMiller, 0)
	if b.Min != 100 || b.Max != 200 {
		t.Errorf("miller bounds = %+v, want 100/200", b)
	}
	// With ±10% tolerance.
	b = tr.NodeCapBounds(1, DefaultMiller, 0.10)
	if math.Abs(b.Min-90) > 1e-9 || math.Abs(b.Max-220) > 1e-9 {
		t.Errorf("tolerance bounds = %+v, want 90/220", b)
	}
}

func TestLineErrors(t *testing.T) {
	if _, err := Line(0, 1, 1); err == nil {
		t.Error("Line(0) should fail")
	}
}

// Property: Elmore delay increases with added capacitance anywhere.
func TestElmoreMonotoneInCapProperty(t *testing.T) {
	f := func(whereRaw, extraRaw uint8) bool {
		tr, err := Line(6, 1200, 120)
		if err != nil {
			return false
		}
		base, err := tr.ElmorePS(300, "out")
		if err != nil {
			return false
		}
		where := tr.nodes[int(whereRaw)%len(tr.nodes)].Name
		if err := tr.AddCap(where, 1+float64(extraRaw)); err != nil {
			return false
		}
		after, err := tr.ElmorePS(300, "out")
		if err != nil {
			return false
		}
		return after >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransientRCStep(t *testing.T) {
	// Single RC: R=1kΩ, C=100fF → τ=100 ps. v(τ) = 63.2% of 1 V;
	// 50% crossing at 69.3 ps.
	n := NewNetwork()
	n.AddCap("a", 100)
	if err := n.addDelayedStep("a", 1000, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	res, err := n.Transient(nil, 500, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	cross := res.CrossingPS("a", 0.5)
	if math.Abs(cross-69.3) > 2 {
		t.Errorf("50%% crossing = %g ps, want ≈69.3", cross)
	}
	if f := res.Final("a"); math.Abs(f-1) > 0.01 {
		t.Errorf("final = %g, want ≈1", f)
	}
}

func TestTransientMatchesElmoreOnLadder(t *testing.T) {
	// On a well-behaved ladder, the Elmore bound is within ~2× of the
	// transient 50% crossing and never below ~0.5× (textbook property:
	// Elmore over-estimates the 50% delay of monotone RC responses).
	tr, err := Line(8, 2000, 160)
	if err != nil {
		t.Fatal(err)
	}
	elm, err := tr.ElmorePS(500, "out")
	if err != nil {
		t.Fatal(err)
	}
	net := FromTree(tr)
	if err := net.addDelayedStep("in", 500, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	res, err := net.Transient(nil, 8*elm, elm/400)
	if err != nil {
		t.Fatal(err)
	}
	cross := res.CrossingPS("out", 0.5)
	if math.IsNaN(cross) {
		t.Fatal("no crossing")
	}
	ratio := elm / cross
	if ratio < 0.5 || ratio > 2.2 {
		t.Errorf("Elmore %g ps vs transient %g ps: ratio %g out of expected band", elm, cross, ratio)
	}
}

func TestTransientChargeConservationDecay(t *testing.T) {
	// Two caps joined by a resistor with no sources: voltages converge
	// to the charge-weighted average.
	n := NewNetwork()
	n.AddCap("a", 100)
	n.AddCap("b", 300)
	if err := n.AddRes("a", "b", 1000); err != nil {
		t.Fatal(err)
	}
	res, err := n.Transient(map[string]float64{"a": 1, "b": 0}, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := (100*1 + 300*0) / 400.0
	if got := res.Final("a"); math.Abs(got-want) > 0.01 {
		t.Errorf("final a = %g, want %g", got, want)
	}
	if got := res.Final("b"); math.Abs(got-want) > 0.01 {
		t.Errorf("final b = %g, want %g", got, want)
	}
}

func TestTransientErrors(t *testing.T) {
	n := NewNetwork()
	n.AddCap("a", 1)
	if _, err := n.Transient(nil, 0, 1); err == nil {
		t.Error("zero duration should fail")
	}
	if err := n.AddRes("a", "b", 0); err == nil {
		t.Error("zero resistance should fail")
	}
	if err := n.addDelayedStep("a", 0, 0, 1, 0); err == nil {
		t.Error("zero source resistance should fail")
	}
}

func TestDistributedGateFigure5(t *testing.T) {
	// The paper's Figure 5 claim: the simple lumped model underestimates
	// the real (distributed, input-skewed) delay.
	g := &DistributedGate{
		Fingers:     8,
		RdrvTotal:   300,
		InRes:       1500,
		InCap:       120,
		RinDrv:      800,
		CgPerFinger: 15,
		OutRes:      1200,
		OutCap:      180,
		CLoad:       120,
		Vdd:         3.45,
	}
	lumped, distributed, errPS, err := g.ModelErrorPS()
	if err != nil {
		t.Fatal(err)
	}
	if lumped <= 0 || distributed <= 0 {
		t.Fatalf("degenerate delays: %g / %g", lumped, distributed)
	}
	if errPS <= 0 {
		t.Errorf("distributed (%g ps) should exceed lumped (%g ps)", distributed, lumped)
	}
}

func TestDistributedGateErrorGrowsWithInputRC(t *testing.T) {
	base := DistributedGate{
		Fingers: 6, RdrvTotal: 300, InRes: 500, InCap: 60, RinDrv: 600,
		CgPerFinger: 12, OutRes: 800, OutCap: 120, CLoad: 80, Vdd: 3.3,
	}
	small := base
	big := base
	big.InRes, big.InCap = 4000, 300
	_, _, errSmall, err := small.ModelErrorPS()
	if err != nil {
		t.Fatal(err)
	}
	_, _, errBig, err := big.ModelErrorPS()
	if err != nil {
		t.Fatal(err)
	}
	if errBig <= errSmall {
		t.Errorf("model error should grow with input grid RC: %g vs %g", errSmall, errBig)
	}
}

func TestDistributedGateValidate(t *testing.T) {
	bad := []DistributedGate{
		{Fingers: 0, RdrvTotal: 1, RinDrv: 1, Vdd: 1},
		{Fingers: 1, RdrvTotal: 0, RinDrv: 1, Vdd: 1},
		{Fingers: 1, RdrvTotal: 1, RinDrv: 1, Vdd: 0},
		{Fingers: 1, RdrvTotal: 1, RinDrv: 1, Vdd: 1, CLoad: -1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid gate accepted", i)
		}
	}
}

// must is a test helper for builder errors.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
