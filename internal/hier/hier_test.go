package hier

import (
	"strings"
	"testing"
)

// figure1 builds the paper's Figure 1 situation: three RTL blocks and
// two schematic blocks whose boundaries overlap irregularly (schematic
// S2 spans RTL1, RTL2 and RTL3).
func figure1(t *testing.T) (*Hierarchy, *Hierarchy) {
	t.Helper()
	r := New(ViewRTL, "chip_rtl")
	for _, b := range []string{"rtl1", "rtl2", "rtl3"} {
		if _, err := r.AddBlock("chip_rtl", b); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.AddLeaves("rtl1", "f1", "f2", "f3"))
	must(r.AddLeaves("rtl2", "f4", "f5"))
	must(r.AddLeaves("rtl3", "f6", "f7", "f8"))

	s := New(ViewSchematic, "chip_sch")
	for _, b := range []string{"s1", "s2", "s3"} {
		if _, err := s.AddBlock("chip_sch", b); err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddLeaves("s1", "f1", "f2"))
	must(s.AddLeaves("s2", "f3", "f4", "f6")) // spans all three RTL blocks
	must(s.AddLeaves("s3", "f5", "f7", "f8"))
	return r, s
}

func TestOverlapFigure1(t *testing.T) {
	r, s := figure1(t)
	rep, err := Overlap(s, r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aligned() {
		t.Fatal("Figure 1 hierarchies reported as aligned")
	}
	var s2 *OverlapRow
	for i := range rep.Rows {
		if rep.Rows[i].Block == "s2" {
			s2 = &rep.Rows[i]
		}
	}
	if s2 == nil {
		t.Fatal("no row for s2")
	}
	if s2.Fragmentation() != 3 {
		t.Errorf("s2 spans %d RTL blocks, want 3 (Figure 1's schematic #2)", s2.Fragmentation())
	}
	if s2.Total != 3 {
		t.Errorf("s2 total = %d", s2.Total)
	}
	if rep.MaxFragmentation() != 3 {
		t.Errorf("max fragmentation = %d", rep.MaxFragmentation())
	}
	if len(rep.OnlyInA) != 0 || len(rep.OnlyInB) != 0 {
		t.Error("universes should match in this example")
	}
	str := rep.String()
	for _, want := range []string{"s2", "rtl1(1)", "rtl2(1)", "rtl3(1)"} {
		if !strings.Contains(str, want) {
			t.Errorf("report missing %q:\n%s", want, str)
		}
	}
}

func TestAlignedHierarchies(t *testing.T) {
	a := New(ViewRTL, "ra")
	b := New(ViewSchematic, "rb")
	for _, h := range []*Hierarchy{a, b} {
		blk := "x"
		if _, err := h.AddBlock(h.Root.Name, blk); err != nil {
			t.Fatal(err)
		}
		if err := h.AddLeaves(blk, "l1", "l2"); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Overlap(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Aligned() {
		t.Errorf("identical partitions should align: %s", rep)
	}
}

func TestMissingLeavesReported(t *testing.T) {
	a := New(ViewRTL, "ra")
	b := New(ViewSchematic, "rb")
	if err := a.AddLeaves("ra", "common", "rtl_only"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLeaves("rb", "common", "sch_only"); err != nil {
		t.Fatal(err)
	}
	rep, err := Overlap(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OnlyInA) != 1 || rep.OnlyInA[0] != "rtl_only" {
		t.Errorf("OnlyInA = %v", rep.OnlyInA)
	}
	if len(rep.OnlyInB) != 1 || rep.OnlyInB[0] != "sch_only" {
		t.Errorf("OnlyInB = %v", rep.OnlyInB)
	}
	if rep.Aligned() {
		t.Error("mismatched universes cannot be aligned")
	}
}

func TestDuplicateLeafDetected(t *testing.T) {
	h := New(ViewRTL, "r")
	if _, err := h.AddBlock("r", "a"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddLeaves("r", "x"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddLeaves("a", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.LeafOwner(); err == nil {
		t.Error("duplicate leaf accepted")
	}
}

func TestBuilderErrors(t *testing.T) {
	h := New(ViewLayout, "r")
	if _, err := h.AddBlock("nope", "a"); err == nil {
		t.Error("unknown parent accepted")
	}
	if _, err := h.AddBlock("r", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddBlock("r", "a"); err == nil {
		t.Error("duplicate block accepted")
	}
	if err := h.AddLeaves("nope", "x"); err == nil {
		t.Error("leaves on unknown block accepted")
	}
}

func TestViewString(t *testing.T) {
	if ViewRTL.String() != "rtl" || ViewSchematic.String() != "schematic" || ViewLayout.String() != "layout" {
		t.Error("view names wrong")
	}
}
