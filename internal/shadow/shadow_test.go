package shadow

import (
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/rtl"
	"repro/internal/switchsim"
)

// rtlXor is a 1-bit XOR in FCL with a phi1 output register.
const rtlXor = `
module top(a, b -> y, q)
reg r @phi1
assign y = a ^ b
on phi1: r <= a ^ b
assign q = r
endmodule
`

// cktXor builds a static CMOS XOR (complementary AOI form) y = a⊕b,
// using internally generated complements.
func cktXor() *netlist.Circuit {
	c := netlist.New("xor")
	for _, p := range []string{"a", "b", "y"} {
		c.DeclarePort(p)
	}
	inv := func(name, in, out string) {
		c.NMOS(name+"_n", in, "vss", out, 2, 0.75)
		c.PMOS(name+"_p", in, "vdd", out, 4, 0.75)
	}
	inv("ia", "a", "an")
	inv("ib", "b", "bn")
	// Complementary XOR: y pulled low when (a&b)|(an&bn) — the XNOR
	// condition — and pulled high through the dual PMOS network
	// ((a‖b) in series with (an‖bn), conducting on exactly-one-high).
	c.NMOS("n1", "a", "x1", "y", 4, 0.75)
	c.NMOS("n2", "b", "vss", "x1", 4, 0.75)
	c.NMOS("n3", "an", "x2", "y", 4, 0.75)
	c.NMOS("n4", "bn", "vss", "x2", 4, 0.75)
	c.PMOS("p1", "a", "vdd", "x3", 6, 0.75)
	c.PMOS("p2", "b", "vdd", "x3", 6, 0.75)
	c.PMOS("p3", "an", "x3", "y", 6, 0.75)
	c.PMOS("p4", "bn", "x3", "y", 6, 0.75)
	return c
}

// xorBind drives the XOR's inputs from the RTL and shadows its output.
func xorBind() Binding {
	return Binding{
		Inputs:  map[string]string{"a": "a", "b": "b"},
		Outputs: map[string]string{"y": "y"},
	}
}

func TestShadowCatchesBug(t *testing.T) {
	// The classic full-custom bug: one series device's gate swapped so
	// the pulldown computes the wrong function.
	sh := newPackedShadow(t, brokenXor(), xorBind())
	for cyc := 0; cyc < 8; cyc++ {
		_ = sh.RTL.SetAll("a", uint64(cyc)&1)
		_ = sh.RTL.SetAll("b", uint64(cyc>>1)&1)
		sh.Cycle()
	}
	if len(sh.Mismatches) == 0 {
		t.Fatal("shadow failed to catch a wired-wrong pulldown")
	}
	m := sh.Mismatches[0]
	if m.Node != "y" || m.Signal != "y" || m.Lane != 0 {
		t.Errorf("mismatch identifies wrong objects: %+v", m)
	}
	if !strings.Contains(sh.Report(), "mismatches:") {
		t.Error("report should list mismatches")
	}
}

func TestShadowDoesNotPatchRTL(t *testing.T) {
	// "shadowing (not replacing)": RTL results must be unaffected by a
	// broken circuit.
	good := newPackedShadow(t, cktXor(), xorBind())
	bad := newPackedShadow(t, brokenXor(), xorBind())
	for cyc := 0; cyc < 4; cyc++ {
		bPl := uint64(cyc+1) * 0x9e3779b97f4a7c15
		for _, sh := range []*PackedShadow{good, bad} {
			_ = sh.RTL.SetAll("a", 1)
			_ = sh.RTL.SetPlanes("b", []uint64{bPl})
			sh.Cycle()
		}
		if gq, bq := good.RTL.GetPlanes("q", nil), bad.RTL.GetPlanes("q", nil); gq[0] != bq[0] {
			t.Fatal("a shadow mismatch leaked into RTL state")
		}
	}
	if len(bad.Mismatches) == 0 {
		t.Fatal("broken circuit never mismatched — test is vacuous")
	}
}

func TestBindingValidation(t *testing.T) {
	prog, _ := rtl.ParseString(rtlXor)
	rs, _ := rtl.NewPackedSim(prog)
	cs, _ := switchsim.NewPacked(cktXor())
	cases := []Binding{
		{Inputs: map[string]string{"nope": "a"}},
		{Inputs: map[string]string{"a": "nosig"}},
		{Outputs: map[string]string{"zz": "y"}},
		{Outputs: map[string]string{"y": "nosig"}},
		{Clocks: map[string]string{"zz": "phi1"}},
		{Clocks: map[string]string{"a": "phi9"}},
		{Inputs: map[string]string{"a": "a[bad"}},
		{Inputs: map[string]string{"a": "a[99]"}},
		// Bit selects at or past the width of a 1-bit signal.
		{Inputs: map[string]string{"a": "a[1]"}},
		{Inputs: map[string]string{"b": "b[5]"}},
		{Outputs: map[string]string{"y": "y[7]"}},
	}
	for i, b := range cases {
		if _, err := NewPacked(rs, cs, b); err == nil {
			t.Errorf("binding %d accepted: %+v", i, b)
		}
	}
}

func TestBitSelectBinding(t *testing.T) {
	// The phi1 register gives the design a clock phase to compare in.
	const src = `
module top(v[4] -> y)
reg r @phi1
on phi1: r <= v[2]
assign y = v[2]
endmodule
`
	prog, _ := rtl.ParseString(src)
	rs, err := rtl.NewPackedSim(prog)
	if err != nil {
		t.Fatal(err)
	}
	c := netlist.New("buf")
	c.DeclarePort("in")
	c.DeclarePort("out")
	c.NMOS("n1", "in", "vss", "mid", 2, 0.75)
	c.PMOS("p1", "in", "vdd", "mid", 4, 0.75)
	c.NMOS("n2", "mid", "vss", "out", 2, 0.75)
	c.PMOS("p2", "mid", "vdd", "out", 4, 0.75)
	cs, _ := switchsim.NewPacked(c)
	sh, err := NewPacked(rs, cs, Binding{
		Inputs:  map[string]string{"in": "v[2]"},
		Outputs: map[string]string{"out": "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := sh.RandomRun(4, 3, "v"); err != nil || !ok {
		t.Errorf("bit-select shadow mismatched (err %v):\n%s", err, sh.Report())
	}
	if want := 4 * switchsim.Lanes; sh.Compared != want {
		t.Errorf("Compared = %d, want %d", sh.Compared, want)
	}
}

// TestMismatchCap binds two outputs, one wrong in every lane (an is a's
// complement), under a small cap: the log stops at the cap, but every
// lane comparison is still counted, 64 for each of the oracle's.
func TestMismatchCap(t *testing.T) {
	bind := xorBind()
	bind.Outputs["an"] = "a"
	packed := newPackedShadow(t, brokenXor(), bind)
	oracle := newShadow(t, brokenXor(), bind)
	packed.MaxMismatches, oracle.MaxMismatches = 3, 3
	const cycles = 10
	for cyc := 0; cyc < cycles; cyc++ {
		b := uint64(cyc) & 1
		_ = packed.RTL.SetAll("a", 1)
		_ = packed.RTL.SetAll("b", b)
		_ = oracle.RTL.Set("a", 1)
		_ = oracle.RTL.Set("b", b)
		packed.Cycle()
		oracle.Cycle()
	}
	if len(packed.Mismatches) != 3 {
		t.Errorf("mismatch log holds %d, want the cap of 3", len(packed.Mismatches))
	}
	if want := cycles * 2 * switchsim.Lanes; packed.Compared != want {
		t.Errorf("Compared = %d, want %d", packed.Compared, want)
	}
	if packed.Compared != switchsim.Lanes*oracle.Compared {
		t.Errorf("Compared = %d, want 64 x the oracle's %d", packed.Compared, oracle.Compared)
	}
}

func TestShadowRandomRun(t *testing.T) {
	sh := newPackedShadow(t, brokenXor(), xorBind())
	ok, err := sh.RandomRun(40, 1997, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("random stimulus missed the wired-wrong pulldown")
	}
	if _, err := sh.RandomRun(1, 0, "zz"); err == nil {
		t.Error("unknown stimulus input accepted")
	}
}
