package designs

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/equiv"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/recognize"
	"repro/internal/rtl"
	"repro/internal/switchsim"
)

// TestCrossValidationStaticGates checks that two completely independent
// engines agree on every static gate in this package: the recognizer's
// deduced boolean function (path enumeration + BDDs) and the
// switch-level simulator (rail reachability), over all input vectors.
func TestCrossValidationStaticGates(t *testing.T) {
	type gate struct {
		name   string
		build  func(c *circuit)
		inputs []string
		out    string
	}
	gates := []gate{
		{"nand2", func(c *circuit) { AddNAND2(c, "g", "a", "b", "y") }, []string{"a", "b"}, "y"},
		{"nor2", func(c *circuit) { AddNOR2(c, "g", "a", "b", "y") }, []string{"a", "b"}, "y"},
		{"xor2", func(c *circuit) {
			AddInverter(c, "ia", "a", "an", 2, 4)
			AddInverter(c, "ib", "b", "bn", 2, 4)
			AddXOR2(c, "g", "a", "an", "b", "bn", "y")
		}, []string{"a", "b"}, "y"},
	}
	for _, g := range gates {
		c := newCircuit(g.name)
		c.DeclarePort(g.out)
		for _, in := range g.inputs {
			c.DeclarePort(in)
		}
		g.build(c)
		rec, err := recognize.Analyze(c)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		fn, err := equiv.CircuitOutputFunction(rec, c.FindNode(g.out))
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		sim, err := switchsim.NewPacked(c)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 1<<len(g.inputs); v++ {
			env := make(map[string]bool)
			for k, in := range g.inputs {
				bit := v>>k&1 == 1
				env[in] = bit
				sim.SetQuietAll(in, switchsim.Bool(bit))
			}
			sim.Settle()
			want := fn.Eval(env)
			got := sim.GetLane(g.out, 0)
			if got == switchsim.X {
				t.Errorf("%s: sim X at %v", g.name, env)
				continue
			}
			if (got == switchsim.Hi) != want {
				t.Errorf("%s at %v: recognizer says %v, switch sim says %v", g.name, env, want, got)
			}
		}
	}
}

// TestCrossValidationAdderThreeWay drives random vectors through the
// transistor-level domino adder (switch sim), the FCL RTL adder
// (compiled sim), and Go's own integer addition — all three must agree.
func TestCrossValidationAdderThreeWay(t *testing.T) {
	const n = 8
	ckt, err := switchsim.NewPacked(DominoAdder(n))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := rtl.ParseString(AdderRTL(n))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := rtl.NewSim(prog)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8, cin bool) bool {
		// Switch level.
		ckt.SetQuietAll("phi1", switchsim.Lo)
		for i := 0; i < n; i++ {
			ckt.SetQuietAll(fmt.Sprintf("a%d", i), switchsim.Bool(uint64(a)>>uint(i)&1 == 1))
			ckt.SetQuietAll(fmt.Sprintf("b%d", i), switchsim.Bool(uint64(b)>>uint(i)&1 == 1))
		}
		ckt.SetQuietAll("cin", switchsim.Bool(cin))
		ckt.Settle()
		ckt.SetQuietAll("phi1", switchsim.Hi)
		ckt.Settle()
		var cktSum uint64
		for i := 0; i < n; i++ {
			v := ckt.GetLane(fmt.Sprintf("s%d", i), 0)
			if v == switchsim.X {
				return false
			}
			if v == switchsim.Hi {
				cktSum |= 1 << uint(i)
			}
		}
		// RTL.
		_ = golden.Set("a", uint64(a))
		_ = golden.Set("b", uint64(b))
		cv := uint64(0)
		if cin {
			cv = 1
		}
		_ = golden.Set("cin", cv)
		rtlSum := golden.Get("s")
		// Integer truth.
		want := (uint64(a) + uint64(b) + cv) & 0xff
		return cktSum == want && rtlSum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestRecognizedDominoFunctionMatchesSim cross-validates the evaluate-
// phase abstraction: for the carry gate, the recognizer's Function must
// predict the settled switch-level value during evaluate.
func TestRecognizedDominoFunctionMatchesSim(t *testing.T) {
	c := newCircuit("mc")
	for _, p := range []string{"g", "p", "cin", "cout"} {
		c.DeclarePort(p)
	}
	AddDominoCarry(c, "mc0", "g", "p", "cin", "phi1", "cout")
	rec, err := recognize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	dyn := c.FindNode("mc0_dyn")
	fn := rec.GroupDriving(dyn).Func(dyn).Function
	if fn == nil {
		t.Fatal("no evaluate function for the carry gate")
	}
	sim, err := switchsim.NewPacked(c)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		env := map[string]bool{
			"g":   v&1 == 1,
			"p":   v&2 == 2,
			"cin": v&4 == 4,
		}
		sim.SetQuietAll("phi1", switchsim.Lo)
		for k, b := range env {
			sim.SetQuietAll(k, switchsim.Bool(b))
		}
		sim.Settle()
		sim.SetQuietAll("phi1", switchsim.Hi)
		sim.Settle()
		want := fn.Eval(env)
		got := sim.GetLane("mc0_dyn", 0)
		if got == switchsim.X {
			t.Errorf("dyn X at %v", env)
			continue
		}
		if (got == switchsim.Hi) != want {
			t.Errorf("at %v: recognizer predicts dyn=%v, sim says %v", env, want, got)
		}
	}
	// The carry function itself: cout = g | p&cin means dyn = !(that).
	wantFn := logic.Not(logic.Or(logic.Var("g"), logic.And(logic.Var("p"), logic.Var("cin"))))
	if !logic.Equivalent(fn, wantFn) {
		t.Errorf("carry gate function = %v, want !(g|p&cin)", fn)
	}
}

// circuit and newCircuit keep the helpers above terse.
type circuit = netlist.Circuit

func newCircuit(name string) *circuit { return netlist.New(name) }
