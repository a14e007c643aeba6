package switchsim

import (
	"strings"
	"testing"

	"repro/internal/netlist"
)

// newScalar builds a scalar oracle, failing the test on error.
func newScalar(t *testing.T, c *netlist.Circuit) *Scalar {
	t.Helper()
	s, err := NewScalar(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newPacked builds a PackedSim, failing the test on error.
func newPacked(t *testing.T, c *netlist.Circuit) *PackedSim {
	t.Helper()
	p, err := NewPacked(c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// engine is the one-vector surface the behaviour tests drive.
type engine interface {
	Set(name string, v Value) int
	SetQuiet(name string, v Value)
	Release(name string) int
	Settle() int
	Get(name string) Value
	Steps() int
	Snapshot() map[string]Value
}

// uniform drives every lane of a PackedSim alike. A read fails the test
// unless all 64 lanes agree, and then returns lane 0.
type uniform struct {
	t *testing.T
	*PackedSim
}

func (u uniform) Set(name string, v Value) int {
	u.SetQuietAll(name, v)
	return u.Settle()
}

func (u uniform) SetQuiet(name string, v Value) { u.SetQuietAll(name, v) }

func (u uniform) Get(name string) Value {
	u.t.Helper()
	if hi, lo := u.GetLanes(name); (hi != 0 && hi != allLanes) || (lo != 0 && lo != allLanes) {
		u.t.Errorf("node %s: lanes disagree (hi %#x, lo %#x)", name, hi, lo)
	}
	return u.GetLane(name, 0)
}

func (u uniform) Snapshot() map[string]Value {
	u.t.Helper()
	snap := u.SnapshotLane(0)
	for name := range snap {
		u.Get(name)
	}
	return snap
}

// onEngines runs a behaviour test on the scalar oracle and on a
// PackedSim driven alike in all lanes, each over the same circuit.
func onEngines(t *testing.T, c *netlist.Circuit, test func(t *testing.T, s engine)) {
	t.Run("scalar", func(t *testing.T) { test(t, newScalar(t, c)) })
	t.Run("packed", func(t *testing.T) { test(t, uniform{t, newPacked(t, c)}) })
}

// addInv appends an inverter in→out to c.
func addInv(c *netlist.Circuit, name, in, out string) {
	c.NMOS(name+"_n", in, "vss", out, 2, 0.75)
	c.PMOS(name+"_p", in, "vdd", out, 4, 0.75)
}

func TestInverter(t *testing.T) {
	c := netlist.New("inv")
	addInv(c, "u1", "a", "y")
	onEngines(t, c, func(t *testing.T, s engine) {
		s.Set("a", Hi)
		if got := s.Get("y"); got != Lo {
			t.Errorf("inv(1) = %v, want 0", got)
		}
		s.Set("a", Lo)
		if got := s.Get("y"); got != Hi {
			t.Errorf("inv(0) = %v, want 1", got)
		}
		s.Set("a", X)
		if got := s.Get("y"); got != X {
			t.Errorf("inv(X) = %v, want X", got)
		}
	})
}

func TestNAND2AllInputCombos(t *testing.T) {
	c := netlist.New("nand2")
	c.NMOS("mn1", "a", "mid", "y", 4, 0.75)
	c.NMOS("mn2", "b", "vss", "mid", 4, 0.75)
	c.PMOS("mp1", "a", "vdd", "y", 4, 0.75)
	c.PMOS("mp2", "b", "vdd", "y", 4, 0.75)
	onEngines(t, c, func(t *testing.T, s engine) {
		cases := []struct{ a, b, want Value }{
			{Lo, Lo, Hi}, {Lo, Hi, Hi}, {Hi, Lo, Hi}, {Hi, Hi, Lo},
		}
		for _, cse := range cases {
			s.SetQuiet("a", cse.a)
			s.SetQuiet("b", cse.b)
			s.Settle()
			if got := s.Get("y"); got != cse.want {
				t.Errorf("nand(%v,%v) = %v, want %v", cse.a, cse.b, got, cse.want)
			}
		}
	})
}

func TestXPropagationPartial(t *testing.T) {
	// NAND with a=0 outputs 1 regardless of b=X (controlling value).
	c := netlist.New("nand2")
	c.NMOS("mn1", "a", "mid", "y", 4, 0.75)
	c.NMOS("mn2", "b", "vss", "mid", 4, 0.75)
	c.PMOS("mp1", "a", "vdd", "y", 4, 0.75)
	c.PMOS("mp2", "b", "vdd", "y", 4, 0.75)
	onEngines(t, c, func(t *testing.T, s engine) {
		s.SetQuiet("a", Lo)
		s.SetQuiet("b", X)
		s.Settle()
		if got := s.Get("y"); got != Hi {
			t.Errorf("nand(0,X) = %v, want 1 (a controls)", got)
		}
		// a=1, b=X → X.
		s.SetQuiet("a", Hi)
		s.Settle()
		if got := s.Get("y"); got != X {
			t.Errorf("nand(1,X) = %v, want X", got)
		}
	})
}

func TestInverterChainPropagates(t *testing.T) {
	c := netlist.New("chain")
	prev := "a"
	for i := 0; i < 8; i++ {
		next := "n" + itoa(i)
		addInv(c, "u"+itoa(i), prev, next)
		prev = next
	}
	onEngines(t, c, func(t *testing.T, s engine) {
		s.Set("a", Hi)
		if got := s.Get(prev); got != Hi { // 8 inversions = identity
			t.Errorf("chain out = %v, want 1", got)
		}
		s.Set("a", Lo)
		if got := s.Get(prev); got != Lo {
			t.Errorf("chain out = %v, want 0", got)
		}
	})
}

func TestTransmissionGatePassesBothLevels(t *testing.T) {
	c := netlist.New("tg")
	c.NMOS("mn", "en", "in", "out", 4, 0.75)
	c.PMOS("mp", "enb", "in", "out", 4, 0.75)
	addInv(c, "buf", "out", "y")
	onEngines(t, c, func(t *testing.T, s engine) {
		s.SetQuiet("en", Hi)
		s.SetQuiet("enb", Lo)
		s.SetQuiet("in", Hi)
		s.Settle()
		if got := s.Get("out"); got != Hi {
			t.Errorf("tgate(on, 1) = %v, want 1", got)
		}
		if got := s.Get("y"); got != Lo {
			t.Errorf("buffered tgate output = %v, want 0", got)
		}
		s.SetQuiet("in", Lo)
		s.Settle()
		if got := s.Get("out"); got != Lo {
			t.Errorf("tgate(on, 0) = %v, want 0", got)
		}
	})
}

func TestTransmissionGateHoldsWhenOff(t *testing.T) {
	c := netlist.New("tg")
	c.NMOS("mn", "en", "in", "out", 4, 0.75)
	c.PMOS("mp", "enb", "in", "out", 4, 0.75)
	onEngines(t, c, func(t *testing.T, s engine) {
		// Drive through, then close the gate and change the input: the
		// output retains its charge (a dynamic storage node).
		s.SetQuiet("en", Hi)
		s.SetQuiet("enb", Lo)
		s.SetQuiet("in", Hi)
		s.Settle()
		s.SetQuiet("en", Lo)
		s.SetQuiet("enb", Hi)
		s.Settle()
		s.Set("in", Lo)
		if got := s.Get("out"); got != Hi {
			t.Errorf("closed tgate output = %v, want held 1", got)
		}
	})
}

func TestDominoPrechargeEvaluate(t *testing.T) {
	// Footed domino AND2: phi=0 precharges dyn high; phi=1 evaluates.
	c := netlist.New("domino")
	c.PMOS("mpre", "phi", "vdd", "dyn", 4, 0.75)
	c.NMOS("ma", "a", "x1", "dyn", 6, 0.75)
	c.NMOS("mb", "b", "x2", "x1", 6, 0.75)
	c.NMOS("mfoot", "phi", "vss", "x2", 8, 0.75)
	addInv(c, "buf", "dyn", "out")
	onEngines(t, c, func(t *testing.T, s engine) {

		// Precharge phase.
		s.SetQuiet("phi", Lo)
		s.SetQuiet("a", Lo)
		s.SetQuiet("b", Lo)
		s.Settle()
		if got := s.Get("dyn"); got != Hi {
			t.Fatalf("precharged dyn = %v, want 1", got)
		}
		if got := s.Get("out"); got != Lo {
			t.Fatalf("precharged out = %v, want 0", got)
		}

		// Evaluate with a&b true: dyn discharges.
		s.SetQuiet("a", Hi)
		s.SetQuiet("b", Hi)
		s.SetQuiet("phi", Hi)
		s.Settle()
		if got := s.Get("dyn"); got != Lo {
			t.Errorf("evaluate dyn = %v, want 0", got)
		}
		if got := s.Get("out"); got != Hi {
			t.Errorf("evaluate out = %v, want 1", got)
		}

		// Precharge again, then evaluate with a&b false: dyn floats high.
		s.SetQuiet("phi", Lo)
		s.Settle()
		s.SetQuiet("a", Lo)
		s.SetQuiet("phi", Hi)
		s.Settle()
		if got := s.Get("dyn"); got != Hi {
			t.Errorf("floating dyn = %v, want held 1", got)
		}
		if got := s.Get("out"); got != Lo {
			t.Errorf("out after hold = %v, want 0", got)
		}
	})
}

func TestChargeSharingDegradesToX(t *testing.T) {
	// A held-high dynamic node connected by an opening NMOS to a
	// discharged internal node (Figure 3's charge-share hazard): the
	// simulator conservatively reports X.
	c := netlist.New("share")
	c.PMOS("mpre", "phi", "vdd", "dyn", 4, 0.75)
	c.NMOS("mtop", "a", "mid", "dyn", 6, 0.75)
	c.NMOS("mbot", "b", "vss", "mid", 6, 0.75)
	onEngines(t, c, func(t *testing.T, s engine) {
		// Precharge dyn with a=0; separately discharge mid via b=1.
		s.SetQuiet("phi", Lo)
		s.SetQuiet("a", Lo)
		s.SetQuiet("b", Hi)
		s.Settle()
		if got := s.Get("dyn"); got != Hi {
			t.Fatalf("dyn = %v, want 1", got)
		}
		if got := s.Get("mid"); got != Lo {
			t.Fatalf("mid = %v, want 0", got)
		}
		// Close precharge and the foot, then open the top device: dyn and
		// mid become a floating island with mixed charge → X.
		s.SetQuiet("phi", Hi)
		s.SetQuiet("b", Lo)
		s.Settle()
		s.SetQuiet("a", Hi)
		s.Settle()
		if got := s.Get("dyn"); got != X {
			t.Errorf("charge-shared dyn = %v, want X", got)
		}
	})
}

func TestCrossCoupledLatchHoldsState(t *testing.T) {
	// SR-style: two cross-coupled inverters with a write port through a
	// strong pass NMOS.
	c := netlist.New("cell")
	addInv(c, "i1", "q", "qn")
	addInv(c, "i2", "qn", "q")
	onEngines(t, c, func(t *testing.T, s engine) {
		// Write 1 by forcing q, then release: loop must hold it.
		s.Set("q", Hi)
		if got := s.Get("qn"); got != Lo {
			t.Fatalf("qn = %v, want 0", got)
		}
		s.Release("q")
		if got := s.Get("q"); got != Hi {
			t.Errorf("released q = %v, want held 1", got)
		}
		// Overdrive to the other state.
		s.Set("q", Lo)
		s.Release("q")
		if got := s.Get("q"); got != Lo {
			t.Errorf("released q = %v, want held 0", got)
		}
		if got := s.Get("qn"); got != Hi {
			t.Errorf("qn = %v, want 1", got)
		}
	})
}

func TestPseudoNMOSRatioedFightResolves(t *testing.T) {
	// Pseudo-NMOS inverter: 2/1.5 PMOS load vs 8/0.75 NMOS driver. The
	// NMOS wins the fight decisively → output 0, not X.
	c := netlist.New("pnmos")
	c.PMOS("mload", "vss", "vdd", "y", 2, 1.5)
	c.NMOS("mdrv", "a", "vss", "y", 8, 0.75)
	onEngines(t, c, func(t *testing.T, s engine) {
		s.Set("a", Hi)
		if got := s.Get("y"); got != Lo {
			t.Errorf("pseudo-NMOS(1) = %v, want 0 (ratioed win)", got)
		}
		s.Set("a", Lo)
		if got := s.Get("y"); got != Hi {
			t.Errorf("pseudo-NMOS(0) = %v, want 1", got)
		}
	})
}

func TestBalancedFightIsX(t *testing.T) {
	// Equal-strength contention must stay X.
	c := netlist.New("fight")
	c.PMOS("mp", "en_p", "vdd", "y", 10, 0.75)
	c.NMOS("mn", "en_n", "vss", "y", 4, 0.75) // 4/0.75 NMOS ≈ 10/0.75 PMOS·0.4
	onEngines(t, c, func(t *testing.T, s engine) {
		s.SetQuiet("en_p", Lo) // PMOS on
		s.SetQuiet("en_n", Hi) // NMOS on
		s.Settle()
		if got := s.Get("y"); got != X {
			t.Errorf("balanced fight = %v, want X", got)
		}
	})
}

func TestRingOscillatorGoesX(t *testing.T) {
	// A 3-inverter ring has no stable point: relaxation must cap and
	// mark it X rather than hang.
	c := netlist.New("ring")
	addInv(c, "u1", "n0", "n1")
	addInv(c, "u2", "n1", "n2")
	addInv(c, "u3", "n2", "n0")
	onEngines(t, c, func(t *testing.T, s engine) {
		iters := s.Settle()
		if iters < MaxIterations {
			// A ring from all-X stays all-X (stable) — kick it.
			s.Set("n0", Hi)
			s.Release("n0")
		}
		vals := []Value{s.Get("n0"), s.Get("n1"), s.Get("n2")}
		stable := (vals[0] != X && vals[1] != X && vals[2] != X)
		if stable {
			t.Errorf("ring settled to %v — impossible", vals)
		}
	})
}

func TestDCVSLBothRails(t *testing.T) {
	// DCVSL AND: with complementary inputs, q and qn resolve to
	// complementary levels via the cross-coupled pull-ups.
	c := netlist.New("dcvsl")
	// DCVSL sizing discipline: the NMOS trees must decisively overpower
	// the cross-coupled PMOS keepers or the gate cannot switch.
	c.PMOS("mp1", "qn", "vdd", "q", 4, 0.75)
	c.PMOS("mp2", "q", "vdd", "qn", 4, 0.75)
	c.NMOS("mn1", "an", "vss", "q", 12, 0.75)
	c.NMOS("mn2", "bn", "vss", "q", 12, 0.75)
	c.NMOS("mn3", "a", "x", "qn", 12, 0.75)
	c.NMOS("mn4", "b", "vss", "x", 12, 0.75)
	onEngines(t, c, func(t *testing.T, s engine) {
		// a=1 b=1: qn pulled low, q pulled high via cross-coupled PMOS.
		s.SetQuiet("a", Hi)
		s.SetQuiet("an", Lo)
		s.SetQuiet("b", Hi)
		s.SetQuiet("bn", Lo)
		s.Settle()
		if q, qn := s.Get("q"), s.Get("qn"); q != Hi || qn != Lo {
			t.Errorf("dcvsl(1,1): q=%v qn=%v, want 1/0", q, qn)
		}
		// a=0: q pulled low, qn high.
		s.SetQuiet("a", Lo)
		s.SetQuiet("an", Hi)
		s.Settle()
		if q, qn := s.Get("q"), s.Get("qn"); q != Lo || qn != Hi {
			t.Errorf("dcvsl(0,1): q=%v qn=%v, want 0/1", q, qn)
		}
	})
}

func TestSnapshot(t *testing.T) {
	c := netlist.New("inv")
	addInv(c, "u", "a", "y")
	onEngines(t, c, func(t *testing.T, s engine) {
		if snap := s.Snapshot(); len(snap) != 2 || snap["a"] != X || snap["y"] != X {
			t.Errorf("initial snapshot = %v, want a and y at X", snap)
		}
		s.Set("a", Hi)
		if snap := s.Snapshot(); snap["a"] != Hi || snap["y"] != Lo {
			t.Errorf("snapshot = %v", snap)
		}
	})
}

func TestNewRejectsHierarchy(t *testing.T) {
	c := netlist.New("h")
	c.AddInstance("x", "cell", "n")
	if _, err := NewScalar(c); err == nil || !strings.Contains(err.Error(), "unflattened") {
		t.Errorf("scalar: want unflattened error, got %v", err)
	}
	if _, err := NewPacked(c); err == nil || !strings.Contains(err.Error(), "unflattened") {
		t.Errorf("packed: want unflattened error, got %v", err)
	}
}

func TestValueStringAndBool(t *testing.T) {
	if Lo.String() != "0" || Hi.String() != "1" || X.String() != "X" {
		t.Error("Value.String mismatch")
	}
	if Bool(true) != Hi || Bool(false) != Lo {
		t.Error("Bool conversion mismatch")
	}
}

func TestStepsAccumulate(t *testing.T) {
	c := netlist.New("inv")
	addInv(c, "u", "a", "y")
	onEngines(t, c, func(t *testing.T, s engine) {
		s.Set("a", Hi)
		s.Set("a", Lo)
		if s.Steps() == 0 {
			t.Error("steps should accumulate")
		}
	})
}

// itoa avoids strconv for a two-digit test need.
func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + itoa(i%10)
}
