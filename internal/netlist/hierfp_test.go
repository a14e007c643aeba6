package netlist

import (
	"fmt"
	"testing"
)

// hierLib builds a three-level library: leaf (inverter pair), mid (two
// chained leaf instances), top (two chained mid instances). tweak
// perturbs one leaf transistor width.
func hierLib(tweak float64) *Library {
	lib := NewLibrary()

	leaf := New("leaf")
	leaf.DeclarePort("in")
	leaf.NMOS("mn0", "in", "vss", "x", 1.0+tweak, 0.25)
	leaf.PMOS("mp0", "in", "vdd", "x", 2.0, 0.25)
	leaf.NMOS("mn1", "x", "vss", "out", 1.0, 0.25)
	leaf.PMOS("mp1", "x", "vdd", "out", 2.0, 0.25)
	leaf.DeclarePort("out")
	lib.Add(leaf)

	mid := New("mid")
	mid.DeclarePort("in")
	mid.AddInstance("xa", "leaf", "in", "m")
	mid.AddInstance("xb", "leaf", "m", "out")
	mid.DeclarePort("out")
	lib.Add(mid)

	top := New("top")
	top.DeclarePort("in")
	top.AddInstance("x0", "mid", "in", "t")
	top.AddInstance("x1", "mid", "t", "out")
	top.DeclarePort("out")
	lib.Add(top)
	return lib
}

// TestHierFingerprintGolden pins a DAG hash end to end.
func TestHierFingerprintGolden(t *testing.T) {
	lib := hierLib(0)
	hfp, err := lib.HierFingerprint(lib.Cell("top"))
	if err != nil {
		t.Fatal(err)
	}
	const wantTop = "1f78da1f939de5c376687e9f75af4f7ab97600249e49214d35a2ec2f30a3e988"
	if got := hfp.Cells["top"].DAG.String(); got != wantTop {
		t.Errorf("top DAG = %s, want %s", got, wantTop)
	}
}

// addOffPath adds an edit-independent sibling branch: top2 combines the
// tweakable mid column with an "other" cell no tweak touches.
func addOffPath(lib *Library) {
	other := New("other")
	other.DeclarePort("in")
	other.NMOS("m1", "in", "vss", "out", 1.0, 0.25)
	other.PMOS("m2", "in", "vdd", "out", 2.0, 0.25)
	other.DeclarePort("out")
	lib.Add(other)
	top2 := New("top2")
	top2.DeclarePort("in")
	top2.AddInstance("xm", "mid", "in", "a")
	top2.AddInstance("xo", "other", "a", "out")
	top2.DeclarePort("out")
	lib.Add(top2)
}

// TestHierFingerprintLeafEditPath: a one-leaf edit moves exactly the
// leaf's DAG hash and the hashes on its path to the root — the sibling
// branch keeps its hash.
func TestHierFingerprintLeafEditPath(t *testing.T) {
	base, edited := hierLib(0), hierLib(0.5)
	addOffPath(base)
	addOffPath(edited)
	h0, err := base.HierFingerprint(base.Cell("top2"))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := edited.HierFingerprint(edited.Cell("top2"))
	if err != nil {
		t.Fatal(err)
	}
	moved := map[string]bool{}
	for _, name := range h0.Order {
		moved[name] = h0.Cells[name].DAG != h1.Cells[name].DAG
	}
	want := map[string]bool{"leaf": true, "mid": true, "top2": true, "other": false}
	for name, w := range want {
		if moved[name] != w {
			t.Errorf("cell %s: DAG moved=%v, want %v", name, moved[name], w)
		}
	}
}

// TestHierFingerprintRenameInvariance: renaming cells, nodes, devices
// and instances leaves every DAG hash unchanged.
func TestHierFingerprintRenameInvariance(t *testing.T) {
	a := hierLib(0)
	ha, err := a.HierFingerprint(a.Cell("top"))
	if err != nil {
		t.Fatal(err)
	}
	b := hierLib(0)
	b.Cell("leaf").Name = "blatt"
	renamed := NewLibrary()
	for _, name := range b.Cells() {
		cell := b.Cell(name)
		for _, inst := range cell.Instances {
			if inst.Cell == "leaf" {
				inst.Cell = "blatt"
			}
			inst.Name = inst.Name + "_r"
		}
		renamed.Add(cell)
	}
	hb, err := renamed.HierFingerprint(renamed.Cell("top"))
	if err != nil {
		t.Fatal(err)
	}
	if ha.Cells["top"].DAG != hb.Cells["top"].DAG {
		t.Error("cell/instance renames moved the top DAG hash")
	}
	if ha.Cells["leaf"].DAG != hb.Cells["blatt"].DAG {
		t.Error("renamed leaf's DAG hash moved")
	}
}

// TestBoundarySignaturePortOrder: port declaration order is part of the
// boundary (instance connections bind positionally) but not of the flat
// structural Fingerprint.
func TestBoundarySignaturePortOrder(t *testing.T) {
	mk := func(order []string) *Circuit {
		c := New("cell")
		for _, p := range order {
			c.DeclarePort(p)
		}
		c.NMOS("m1", "a", "vss", "y", 1.0, 0.25)
		c.PMOS("m2", "a", "vdd", "y", 2.0, 0.25)
		return c
	}
	ab := mk([]string{"a", "y"})
	ba := mk([]string{"y", "a"})
	if ab.Fingerprint() != ba.Fingerprint() {
		t.Error("port reorder changed Fingerprint (declaration order is not structure)")
	}
	// The boundary signature and the DAG hash must see the reorder
	// (callers bind positionally).
	la, lb := NewLibrary(), NewLibrary()
	la.Add(ab)
	lb.Add(ba)
	hA, err := la.HierFingerprint(ab)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := lb.HierFingerprint(ba)
	if err != nil {
		t.Fatal(err)
	}
	if hA.Cells["cell"].Boundary == hB.Cells["cell"].Boundary {
		t.Error("port reorder did not change the boundary signature")
	}
	if hA.Cells["cell"].DAG == hB.Cells["cell"].DAG {
		t.Error("port reorder did not change the DAG hash")
	}
}

// TestHierFingerprintMemoConsistency: the memoized path returns exactly
// the unmemoized hashes, across edits.
func TestHierFingerprintMemoConsistency(t *testing.T) {
	memo := NewHierFPMemo()
	for _, tweak := range []float64{0, 0.5, 0, 0.5, 0.25} {
		lib := hierLib(tweak)
		plain, err := lib.HierFingerprint(lib.Cell("top"))
		if err != nil {
			t.Fatal(err)
		}
		cached, err := lib.HierFingerprintMemo(lib.Cell("top"), memo)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range plain.Order {
			if plain.Cells[name].DAG != cached.Cells[name].DAG {
				t.Fatalf("tweak %g: memoized DAG for %s differs from unmemoized", tweak, name)
			}
			if plain.Cells[name].Boundary != cached.Cells[name].Boundary {
				t.Fatalf("tweak %g: memoized Boundary for %s differs", tweak, name)
			}
		}
	}
}

// TestHierFingerprintTopology: Order is topological (children first),
// Depth and FlatDevices accumulate, Children keeps first-use order.
func TestHierFingerprintTopology(t *testing.T) {
	lib := hierLib(0)
	hfp, err := lib.HierFingerprint(lib.Cell("top"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(hfp.Order); got != "[leaf mid top]" {
		t.Errorf("Order = %s, want [leaf mid top]", got)
	}
	top := hfp.Cells["top"]
	if top.Depth != 2 || top.FlatDevices != 16 || top.Instances != 2 {
		t.Errorf("top info = depth %d devices %d instances %d, want 2/16/2",
			top.Depth, top.FlatDevices, top.Instances)
	}
	if fmt.Sprint(top.Children) != "[mid]" {
		t.Errorf("top children = %v", top.Children)
	}
}

// TestHierFingerprintErrors: unknown references and recursion are
// reported, not hashed around.
func TestHierFingerprintErrors(t *testing.T) {
	lib := NewLibrary()
	c := New("c")
	c.AddInstance("x", "nope", "a")
	lib.Add(c)
	if _, err := lib.HierFingerprint(c); err == nil {
		t.Error("unknown cell reference not reported")
	}
	ra, rb := New("ra"), New("rb")
	ra.AddInstance("x", "rb", "a")
	rb.AddInstance("x", "ra", "a")
	rl := NewLibrary()
	rl.Add(ra)
	rl.Add(rb)
	if _, err := rl.HierFingerprint(ra); err == nil {
		t.Error("recursive hierarchy not reported")
	}
}

// TestHierFPMemoPrune: a long-lived memo (a daemon's edit loop) is
// bounded — once superseded keys outnumber the latest build's live set
// by hierMemoSlack, a rebuild prunes them — and pruning never changes
// the hashes a rebuild produces.
func TestHierFPMemoPrune(t *testing.T) {
	memo := NewHierFPMemo()
	// Each tweak moves the leaf's key and, through the child labels,
	// mid's and top's: 3 fresh entries per iteration.
	iters := 2*hierMemoSlack + 1
	for i := 0; i <= iters; i++ {
		lib := hierLib(float64(i) * 0.01)
		if _, err := lib.HierFingerprintMemo(lib.Cell("top"), memo); err != nil {
			t.Fatal(err)
		}
	}
	memo.mu.Lock()
	size := len(memo.m)
	memo.mu.Unlock()
	if size > hierMemoSlack*3 {
		t.Errorf("memo holds %d entries after %d edit iterations, want <= %d", size, iters, hierMemoSlack*3)
	}
	// The surviving memo still replays the last build correctly.
	lib := hierLib(float64(iters) * 0.01)
	want, err := lib.HierFingerprint(lib.Cell("top"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := lib.HierFingerprintMemo(lib.Cell("top"), memo)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range want.Order {
		if got.Cells[name].DAG != want.Cells[name].DAG {
			t.Errorf("cell %s: memoized DAG %s != fresh %s", name, got.Cells[name].DAG, want.Cells[name].DAG)
		}
	}
}
