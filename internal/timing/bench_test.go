package timing_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/recognize"
	"repro/internal/timing"
)

// BenchmarkAnalyzeKernel measures timing path enumeration and
// propagation over the recognized latch pipeline — arcs, worklist
// arrival propagation, endpoint checks and path reconstruction.
// Recognition and the signature table are computed once outside the
// loop, matching how core.Verify shares both across stages.
func BenchmarkAnalyzeKernel(b *testing.B) {
	c := designs.LatchPipeline(6, false)
	rec, err := recognize.Analyze(c)
	if err != nil {
		b.Fatal(err)
	}
	sigs := netlist.ComputeSignatures(c)
	opt := timing.Options{Proc: process.CMOS075(), Clock: timing.TwoPhase(3000)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.Analyze(rec, sigs, opt); err != nil {
			b.Fatal(err)
		}
	}
}
