package switchsim

import (
	"testing"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// TestObserverCounters checks PackedSim's telemetry: attaching sets the
// switchsim.lanes gauge to the lane width, and every Settle adds one to
// switchsim.packed_settles and its component evaluations times the lane
// width to switchsim.lane_evals.
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
