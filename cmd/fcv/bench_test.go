package main

import (
	"testing"

	"repro/internal/designs"
)

// TestLaneBenchDrivesTheAdder pins what the lane-throughput loops drive:
// every name is an input port of DominoAdder(laneBits), every input is
// driven, and each clocked step, toggling every lane, carries each
// lane's data bit down the carry chain to cout, so no lane is left idle
// or unknown.
func TestLaneBenchDrivesTheAdder(t *testing.T) {
	c := designs.DominoAdder(laneBits)
	driven := map[string]bool{laneClock: true, laneData: true}
	for _, in := range laneHeld() {
		if driven[in.name] {
			t.Errorf("%s is driven twice", in.name)
		}
		driven[in.name] = true
	}
	for name := range driven {
		if id := c.FindNode(name); id < 0 || !c.Nodes[id].IsPort {
			t.Errorf("the lane loops drive %q, which is not a port of %s", name, c.Name)
		}
	}
	if want := 2*laneBits + 2; len(driven) != want {
		t.Errorf("the lane loops drive %d inputs, want %d (a, b, cin and the clock)", len(driven), want)
	}

	p, err := newLaneAdder()
	if err != nil {
		t.Fatal(err)
	}
	pattern := uint64(0x0123456789abcdef)
	for step := 0; step < 4; step++ {
		hi := laneEven(step, pattern)
		laneStep(p, hi)
		if gotHi, gotLo := p.GetLanes("cout"); gotHi != hi || gotLo != ^hi {
			t.Fatalf("step %d: cout lanes hi=%016x lo=%016x, want hi=%016x lo=%016x", step, gotHi, gotLo, hi, ^hi)
		}
	}
}
