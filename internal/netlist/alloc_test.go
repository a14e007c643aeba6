package netlist_test

import (
	"bytes"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
)

// Allocation regression pins for the WL-refinement kernels. The CSR
// incidence layout and in-place sorting brought Fingerprint from ~22k
// allocations per call down to ~9; these bounds leave headroom for
// incidental change but fail loudly if a per-node or per-round
// allocation sneaks back into the refinement loop.
func TestFingerprintAllocs(t *testing.T) {
	c := designs.SRAMArray(32, 16, 0)
	c.Fingerprint() // warm any lazy state
	avg := testing.AllocsPerRun(5, func() { _ = c.Fingerprint() })
	if avg > 50 {
		t.Fatalf("Fingerprint allocates %.0f/op, want <= 50 (seed was ~22000)", avg)
	}
}

func TestSignaturesAllocs(t *testing.T) {
	c := designs.SRAMArray(32, 16, 0)
	netlist.ComputeSignatures(c)
	avg := testing.AllocsPerRun(5, func() { _ = netlist.ComputeSignatures(c) })
	if avg > 100 {
		t.Fatalf("ComputeSignatures allocates %.0f/op, want <= 100 (seed was ~22000)", avg)
	}
}

// Allocation pins for the deck writer and reader on the DeepTree(3, 20)
// render, the 89 KB deck perfbench's hier-edit loop re-renders and
// re-parses on every edit. Write appends into one bounded buffer (2
// allocs; the fmt-based writer made ~18,650). ParseNamed makes one string
// per logical line plus the circuits' own nodes and devices (7,839; the
// two-pass parser made ~10,330). Each bound is the measured count plus
// about 10%.
func TestDeckIOAllocs(t *testing.T) {
	lib, _ := designs.DeepTree(3, 20, 0)
	top := netlist.New("deck")
	var buf bytes.Buffer
	if err := netlist.Write(&buf, lib, top); err != nil {
		t.Fatal(err)
	}
	deck := bytes.Clone(buf.Bytes())
	if avg := testing.AllocsPerRun(5, func() {
		buf.Reset()
		_ = netlist.Write(&buf, lib, top)
	}); avg > 3 {
		t.Errorf("Write allocates %.0f/op, want <= 3", avg)
	}
	if avg := testing.AllocsPerRun(5, func() {
		_, _, _ = netlist.ParseNamed(bytes.NewReader(deck), "deep_tree.sp")
	}); avg > 8600 {
		t.Errorf("ParseNamed allocates %.0f/op, want <= 8600", avg)
	}
}
