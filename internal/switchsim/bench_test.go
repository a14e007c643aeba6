package switchsim_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/switchsim"
)

// BenchmarkSettleKernel measures the scalar oracle's worklist settling
// throughput: clocked stimulus walked through the domino adder, the
// workload whose dirty cone the worklist scheduler was built for. The
// data changes while phi1 precharges, as domino inputs must: changed
// with the evaluate edge, a falling a0 would glitch the carry node.
func BenchmarkSettleKernel(b *testing.B) {
	c := designs.DominoAdder(16)
	sim, err := switchsim.NewScalar(c)
	if err != nil {
		b.Fatal(err)
	}
	sim.Settle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.SetQuiet("phi1", switchsim.Lo)
		sim.SetQuiet("a0", switchsim.Bool(i%2 == 0))
		sim.SetQuiet("b0", switchsim.Hi)
		sim.Settle()
		sim.SetQuiet("phi1", switchsim.Hi)
		sim.Settle()
	}
}

// BenchmarkPackedSettleKernel is the 64-lane twin of
// BenchmarkSettleKernel: the same clocked domino-adder step, but every
// settle carries 64 independent data lanes. Compare ns/op against the
// scalar kernel and divide by 64 for the per-vector cost.
func BenchmarkPackedSettleKernel(b *testing.B) {
	c := designs.DominoAdder(16)
	sim, err := switchsim.NewPacked(c)
	if err != nil {
		b.Fatal(err)
	}
	sim.Settle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.SetQuietAll("phi1", switchsim.Lo)
		lanes := uint64(i) * 0x9e3779b97f4a7c15
		sim.SetQuietLanes("a0", lanes, ^lanes)
		sim.SetQuietAll("b0", switchsim.Hi)
		sim.Settle()
		sim.SetQuietAll("phi1", switchsim.Hi)
		sim.Settle()
	}
}
