package shadow

import (
	"reflect"
	"testing"

	"repro/internal/netlist"
	"repro/internal/rtl"
	"repro/internal/switchsim"
)

// newPackedShadow builds a 64-lane shadow of the XOR RTL over the given
// circuit.
func newPackedShadow(t *testing.T, ckt *netlist.Circuit, b Binding) *PackedShadow {
	t.Helper()
	prog, err := rtl.ParseString(rtlXor)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rtl.NewPackedSim(prog)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := switchsim.NewPacked(ckt)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewPacked(rs, cs, b)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// brokenXor is cktXor with n2's gate rewired to bn — the seeded defect.
func brokenXor() *netlist.Circuit {
	bad := cktXor()
	for _, d := range bad.Devices {
		if d.Name == "n2" {
			d.Gate = bad.Node("bn")
		}
	}
	return bad
}

func TestPackedShadowCleanOnCorrectCircuit(t *testing.T) {
	sh := newPackedShadow(t, cktXor(), xorBind())
	ok, err := sh.RandomRun(20, 77, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("clean circuit mismatched:\n%s", sh.Report())
	}
	if sh.Compared != 20*switchsim.Lanes {
		t.Fatalf("Compared = %d, want %d", sh.Compared, 20*switchsim.Lanes)
	}
}

// TestPackedShadowMatchesScalarPerLane is the co-sim differential: the
// packed shadow's mismatch set must equal the union over lanes of 64
// scalar shadows fed that lane's stimulus, with correct lane indices.
func TestPackedShadowMatchesScalarPerLane(t *testing.T) {
	packed := newPackedShadow(t, brokenXor(), xorBind())
	scalars := make([]*Shadow, switchsim.Lanes)
	for i := range scalars {
		scalars[i] = newShadow(t, brokenXor(), xorBind())
	}
	packed.MaxMismatches = 1 << 20
	for i := range scalars {
		scalars[i].MaxMismatches = 1 << 20
	}
	// Drive all four (a,b) combinations into distinct lane groups each
	// cycle: lane l gets a=bit0(l+cyc), b=bit1(l+cyc).
	for cyc := 0; cyc < 6; cyc++ {
		var aPl, bPl uint64
		for l := 0; l < switchsim.Lanes; l++ {
			a := uint64(l+cyc) & 1
			b := (uint64(l+cyc) >> 1) & 1
			aPl |= a << uint(l)
			bPl |= b << uint(l)
			_ = scalars[l].RTL.Set("a", a)
			_ = scalars[l].RTL.Set("b", b)
		}
		if err := packed.RTL.SetPlanes("a", []uint64{aPl}); err != nil {
			t.Fatal(err)
		}
		if err := packed.RTL.SetPlanes("b", []uint64{bPl}); err != nil {
			t.Fatal(err)
		}
		packed.Cycle()
		for _, s := range scalars {
			s.Cycle()
		}
	}
	// Collect scalar mismatches into (lane → count) and compare against
	// the packed records lane by lane.
	type key struct {
		lane  int
		cycle uint64
		phase string
		node  string
	}
	want := map[key]int{}
	for lane, s := range scalars {
		for _, m := range s.Mismatches {
			want[key{lane, m.Cycle, m.Phase, m.Node}]++
		}
	}
	got := map[key]int{}
	for _, m := range packed.Mismatches {
		if m.Block != -1 {
			t.Fatalf("single-shadow mismatch carries block %d, want -1", m.Block)
		}
		got[key{m.Lane, m.Cycle, m.Phase, m.Node}]++
	}
	if len(want) == 0 {
		t.Fatal("seeded defect produced no scalar mismatches — test is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("packed mismatch set diverges from 64 scalar shadows:\npacked %v\nscalar %v", got, want)
	}
}

// TestPackedShadowRunBlocksDeterministic pins the block sweep contract:
// byte-identical reports (mismatch lane/block coordinates included) at
// any worker count, in block order.
func TestPackedShadowRunBlocksDeterministic(t *testing.T) {
	prog, err := rtl.ParseString(rtlXor)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rtl.Elaborate(prog)
	if err != nil {
		t.Fatal(err)
	}
	bind := Binding{
		Inputs:  map[string]string{"a": "a", "b": "b"},
		Outputs: map[string]string{"y": "y"},
	}
	ckt := brokenXor()
	cfg := BlockRunConfig{Blocks: 6, Cycles: 8, Seed: 31, Inputs: []string{"a", "b"}}
	var ref []BlockReport
	for _, workers := range []int{1, 4, 16} {
		cfg.Workers = workers
		got, err := RunBlocks(d, ckt, bind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			total := 0
			for b, r := range got {
				if r.Block != b {
					t.Fatalf("report %d carries block %d", b, r.Block)
				}
				for _, m := range r.Mismatches {
					if m.Block != b {
						t.Fatalf("mismatch in block %d report carries block %d", b, m.Block)
					}
				}
				total += len(r.Mismatches)
			}
			if total == 0 {
				t.Fatal("defective circuit produced no mismatches across blocks")
			}
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d reports diverge from j1", workers)
		}
	}
}

// TestPackedShadowClockedLatch drives the transmission-gate latch with
// 64 distinct lane sequences against the RTL register.
func TestPackedShadowClockedLatch(t *testing.T) {
	const src = `
module top(d -> q)
reg r @phi1
on phi1: r <= d
assign q = r
endmodule
`
	prog, err := rtl.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rtl.NewPackedSim(prog)
	if err != nil {
		t.Fatal(err)
	}
	c := netlist.New("latch")
	c.DeclarePort("d")
	c.NMOS("pass", "phi1", "d", "m", 8, 0.75)
	c.NMOS("fwd_n", "m", "vss", "qn", 2, 0.75)
	c.PMOS("fwd_p", "m", "vdd", "qn", 4, 0.75)
	c.NMOS("out_n", "qn", "vss", "q", 2, 0.75)
	c.PMOS("out_p", "qn", "vdd", "q", 4, 0.75)
	c.NMOS("fb_n", "q", "vss", "m", 1, 1.5)
	c.PMOS("fb_p", "q", "vdd", "m", 1, 1.5)
	cs, err := switchsim.NewPacked(c)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewPacked(rs, cs, Binding{
		Inputs:  map[string]string{"d": "d"},
		Outputs: map[string]string{"q": "q"},
		Clocks:  map[string]string{"phi1": "phi1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := sh.RandomRun(10, 13, "d")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("latch shadow mismatched:\n%s", sh.Report())
	}
}
