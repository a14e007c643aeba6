package recognize_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/recognize"
)

// Allocation regression pin for CCC extraction. The stamped marker
// arrays and CSR channel incidence brought full recognition of the
// SRAM array from ~9000 allocations to ~2700; the bound fails if the
// per-group maps come back.
func TestAnalyzeAllocs(t *testing.T) {
	c := designs.SRAMArray(32, 16, 0)
	if _, err := recognize.Analyze(c); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := recognize.Analyze(c); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 5000 {
		t.Fatalf("Analyze allocates %.0f/op, want <= 5000 (seed was ~9000)", avg)
	}
}

// Allocation regression pin for conduction-function analysis. One BDD
// manager per group, answering every output question on refs built
// once, brought recognition of the domino adder from 27432 allocations
// to about 8400; recognizing each of its four group shapes once, and
// renaming the result onto the other 156 groups, brought it to 5339
// (5496 under -race). The bound fails if per-group derivation comes
// back.
func TestAnalyzeKernelAllocs(t *testing.T) {
	c := designs.DominoAdder(16)
	if _, err := recognize.Analyze(c); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := recognize.Analyze(c); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 5550 {
		t.Fatalf("Analyze allocates %.0f/op, want <= 5550 (was 8423 deriving every group)", avg)
	}
}
