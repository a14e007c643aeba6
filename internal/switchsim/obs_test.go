package switchsim

import (
	"fmt"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// TestObserverCounters checks PackedSim's telemetry: attaching sets the
// switchsim.lanes gauge to the lane width, and every Settle adds one to
// switchsim.packed_settles, its component evaluations times the lane
// width to switchsim.lane_evals, and the lane classes it settled by
// per-lane strength relaxation to switchsim.strength_classes.
func TestObserverCounters(t *testing.T) {
	c := netlist.New("chain")
	addInv(c, "u1", "a", "m")
	addInv(c, "u2", "m", "y")
	col := obs.New()
	p := newPacked(t, c)
	p.SetObserver(col)
	if got := col.Gauge("switchsim.lanes"); got != Lanes {
		t.Errorf("lanes gauge = %v, want %d", got, Lanes)
	}
	prevEvals := p.CompEvals()
	p.SetLanes("a", 0x5555555555555555, ^uint64(0x5555555555555555))
	p.SetLanes("a", 0, allLanes)
	if got := col.Counter("switchsim.packed_settles"); got != 2 {
		t.Errorf("packed_settles = %d, want 2", got)
	}
	evals := p.CompEvals() - prevEvals
	if got := col.Counter("switchsim.lane_evals"); got != int64(evals*Lanes) {
		t.Errorf("lane_evals counter %d != compEvals delta %d x %d lanes", got, evals, Lanes)
	}
	if evals <= 0 {
		t.Error("no component evaluations recorded")
	}

	// An inverter chain never fights, X lanes included.
	if got := strengthClasses(t, designs.InverterChain(8), map[string]bool{"in": true}, 1); got != 0 {
		t.Errorf("inverter chain: strength_classes = %d, want 0", got)
	}
	// The domino adder's keepers are ratioed against its evaluate
	// stacks, so it needs the fallback, and the count is a function of
	// the stimulus alone.
	adder := map[string]bool{"cin": true}
	for i := 0; i < 8; i++ {
		adder[fmt.Sprintf("a%d", i)], adder[fmt.Sprintf("b%d", i)] = true, true
	}
	first := strengthClasses(t, designs.DominoAdder(8), adder, 7)
	if first == 0 {
		t.Error("domino adder: strength_classes = 0, want the keeper contests counted")
	}
	for run := 0; run < 3; run++ {
		if got := strengthClasses(t, designs.DominoAdder(8), adder, 7); got != first {
			t.Errorf("domino adder run %d: strength_classes = %d, first run %d", run+2, got, first)
		}
	}
}

// strengthClasses runs a fresh observed PackedSim over c for six
// precharge/evaluate cycles of phi1, driving seeded random lanes (about
// one in eight X) into the named inputs each cycle, and returns its
// switchsim.strength_classes count.
func strengthClasses(t *testing.T, c *netlist.Circuit, inputs map[string]bool, seed int64) int64 {
	t.Helper()
	col := obs.New()
	p := newPacked(t, c)
	p.SetObserver(col)
	rng := obs.NewRNG(seed)
	for cycle := 0; cycle < 6; cycle++ {
		p.SetLanes("phi1", 0, allLanes)
		for _, id := range c.Ports {
			if name := c.NodeName(id); inputs[name] {
				v, x := rng.Uint64(), rng.Uint64()&rng.Uint64()&rng.Uint64()
				p.SetQuietLanes(name, v|x, ^v|x)
			}
		}
		p.Settle()
		p.SetLanes("phi1", allLanes, 0)
	}
	return col.Counter("switchsim.strength_classes")
}

// TestObserverDetach: a nil observer restores the uninstrumented path,
// and attaching never changes simulation results.
func TestObserverDetach(t *testing.T) {
	c := netlist.New("inv")
	addInv(c, "u1", "a", "y")
	plain, traced := newPacked(t, c), newPacked(t, c)
	traced.SetObserver(obs.New())
	traced.SetObserver(nil)
	for _, p := range []*PackedSim{plain, traced} {
		p.SetLanes("a", 0x0f0f0f0f0f0f0f0f, 0xf0f0f0f0f0f0f0f0)
	}
	ph, pl := plain.GetLanes("y")
	th, tl := traced.GetLanes("y")
	if ph != th || pl != tl {
		t.Error("observer changed simulation result")
	}
	if plain.Steps() != traced.Steps() {
		t.Errorf("observer changed step count: %d vs %d", plain.Steps(), traced.Steps())
	}
}
