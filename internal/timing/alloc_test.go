package timing_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/recognize"
	"repro/internal/timing"
)

// Allocation regression pin for timing path enumeration. Flat
// node-indexed arrival/predecessor arrays and the CSR fanout index
// brought Analyze from ~840 allocations to ~190; the bound fails if
// the worklist goes back to map-backed state.
func TestAnalyzeAllocs(t *testing.T) {
	c := designs.LatchPipeline(6, false)
	rec, err := recognize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	sigs := netlist.ComputeSignatures(c)
	opt := timing.Options{Proc: process.CMOS075(), Clock: timing.TwoPhase(3000)}
	if _, err := timing.Analyze(rec, sigs, opt); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := timing.Analyze(rec, sigs, opt); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 400 {
		t.Fatalf("Analyze allocates %.0f/op, want <= 400 (seed was ~840)", avg)
	}
}
