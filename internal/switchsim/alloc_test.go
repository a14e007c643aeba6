package switchsim_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/switchsim"
)

// Packed settling must be allocation-free steady-state: the packed
// scratch planes are all preallocated in NewPacked. The step is
// BenchmarkPackedSettleKernel's: data set while phi1 precharges.
func TestPackedSettleAllocs(t *testing.T) {
	c := designs.DominoAdder(16)
	sim, err := switchsim.NewPacked(c)
	if err != nil {
		t.Fatal(err)
	}
	sim.Settle()
	i := uint64(0)
	avg := testing.AllocsPerRun(10, func() {
		sim.SetQuietAll("phi1", switchsim.Lo)
		sim.SetQuietLanes("a0", i*0x9e3779b97f4a7c15, ^(i * 0x9e3779b97f4a7c15))
		sim.SetQuietAll("b0", switchsim.Hi)
		sim.Settle()
		sim.SetQuietAll("phi1", switchsim.Hi)
		sim.Settle()
		i++
	})
	if avg > 0 {
		t.Fatalf("packed Settle step allocates %.1f/op, want 0", avg)
	}
}
