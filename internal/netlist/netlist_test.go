package netlist

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/process"
)

// inv builds a canonical minimum inverter cell.
func inv(t *testing.T) *Circuit {
	t.Helper()
	c := New("inv")
	c.DeclarePort("a")
	c.DeclarePort("y")
	c.NMOS("mn", "a", "vss", "y", 2, 0.75)
	c.PMOS("mp", "a", "vdd", "y", 4, 0.75)
	if err := c.Validate(); err != nil {
		t.Fatalf("inv invalid: %v", err)
	}
	return c
}

func TestNodeInterning(t *testing.T) {
	c := New("t")
	a := c.Node("a")
	if c.Node("a") != a {
		t.Error("same name must return same node")
	}
	if c.Node("b") == a {
		t.Error("different names must differ")
	}
	if c.FindNode("a") != a {
		t.Error("FindNode mismatch")
	}
	if c.FindNode("zz") != InvalidNode {
		t.Error("FindNode of unknown should be InvalidNode")
	}
}

func TestSupplyAliases(t *testing.T) {
	c := New("t")
	vss := c.Node("vss")
	for _, alias := range []string{"GND", "gnd", "0", "VSS"} {
		if c.Node(alias) != vss {
			t.Errorf("%q should alias vss", alias)
		}
	}
	vdd := c.Node("VDD")
	if c.Node("vcc") != vdd {
		t.Error("vcc should alias vdd")
	}
	if !c.IsVdd(vdd) || !c.IsVss(vss) || !c.IsSupply(vdd) || !c.IsSupply(vss) {
		t.Error("supply predicates wrong")
	}
	if c.IsSupply(c.Node("sig")) {
		t.Error("signal flagged as supply")
	}
}

func TestPortsKeepOrder(t *testing.T) {
	c := New("t")
	c.DeclarePort("b")
	c.DeclarePort("a")
	c.DeclarePort("b") // duplicate: no-op
	if len(c.Ports) != 2 || c.NodeName(c.Ports[0]) != "b" || c.NodeName(c.Ports[1]) != "a" {
		t.Errorf("ports out of order: %v", c.Ports)
	}
}

func TestDeviceQueries(t *testing.T) {
	c := inv(t)
	y := c.FindNode("y")
	a := c.FindNode("a")
	adj := NewAdjacency(c)
	if got := len(adj.Channel(y)); got != 2 {
		t.Errorf("Channel(y) = %d devices, want 2", got)
	}
	if got := len(adj.Gated(a)); got != 2 {
		t.Errorf("Gated(a) = %d devices, want 2", got)
	}
	if got := len(adj.Channel(a)); got != 0 {
		t.Errorf("Channel(a) = %d devices, want 0", got)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	c := New("bad")
	c.NMOS("m1", "a", "vss", "y", 2, 0.75)
	c.NMOS("m1", "b", "vss", "y", 2, 0.75) // duplicate name
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("want duplicate-name error, got %v", err)
	}

	c2 := New("bad2")
	c2.NMOS("m1", "a", "vss", "y", 0, 0.75) // zero width
	if err := c2.Validate(); err == nil {
		t.Error("want geometry error")
	}

	c3 := New("bad3")
	d := c3.NMOS("m1", "a", "vss", "y", 2, 0.75)
	d.ExtraL = -1
	if err := c3.Validate(); err == nil {
		t.Error("want ExtraL error")
	}
}

func TestFlattenTwoLevels(t *testing.T) {
	lib := NewLibrary()
	lib.Add(inv(t))

	buf := New("buf")
	buf.DeclarePort("in")
	buf.DeclarePort("out")
	buf.AddInstance("x1", "inv", "in", "mid")
	buf.AddInstance("x2", "inv", "mid", "out")
	lib.Add(buf)

	top := New("chip")
	top.DeclarePort("i")
	top.DeclarePort("o")
	top.AddInstance("xb", "buf", "i", "o")
	lib.Add(top)

	flat, err := lib.Flatten("chip")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(flat.Devices); got != 4 {
		t.Fatalf("flat devices = %d, want 4", got)
	}
	// The internal node of the buffer must be hierarchical.
	if flat.FindNode("xb/mid") == InvalidNode {
		t.Error("missing hierarchical node xb/mid")
	}
	// Boundary nodes must map through to top-level names, not copies.
	if flat.FindNode("i") == InvalidNode || flat.FindNode("o") == InvalidNode {
		t.Error("top ports lost in flattening")
	}
	// Supplies are global — exactly one vdd.
	if flat.FindNode("xb/x1/vdd") != InvalidNode {
		t.Error("supply was incorrectly prefixed")
	}
	// Device names carry the path.
	names := map[string]bool{}
	for _, d := range flat.Devices {
		names[d.Name] = true
	}
	for _, want := range []string{"xb/x1/mn", "xb/x1/mp", "xb/x2/mn", "xb/x2/mp"} {
		if !names[want] {
			t.Errorf("missing flattened device %s (have %v)", want, names)
		}
	}
	if err := flat.Validate(); err != nil {
		t.Errorf("flat netlist invalid: %v", err)
	}
}

func TestFlattenPortConnectivity(t *testing.T) {
	// The classic flattening bug: an instance output feeding another
	// instance input must become one node.
	lib := NewLibrary()
	lib.Add(inv(t))
	top := New("chain")
	top.DeclarePort("in")
	top.DeclarePort("out")
	top.AddInstance("u1", "inv", "in", "n1")
	top.AddInstance("u2", "inv", "n1", "out")
	lib.Add(top)

	flat, err := lib.Flatten("chain")
	if err != nil {
		t.Fatal(err)
	}
	n1 := flat.FindNode("n1")
	if n1 == InvalidNode {
		t.Fatal("n1 missing")
	}
	// n1 must have both u1's drains (2 devices) and u2's gates (2).
	adj := NewAdjacency(flat)
	if got := len(adj.Channel(n1)); got != 2 {
		t.Errorf("Channel(n1) = %d, want 2", got)
	}
	if got := len(adj.Gated(n1)); got != 2 {
		t.Errorf("Gated(n1) = %d, want 2", got)
	}
}

func TestFlattenErrors(t *testing.T) {
	lib := NewLibrary()
	if _, err := lib.Flatten("nope"); err == nil {
		t.Error("flatten of unknown cell should fail")
	}

	// Unknown child.
	a := New("a")
	a.AddInstance("x", "missing", "n")
	lib.Add(a)
	if _, err := lib.Flatten("a"); err == nil || !strings.Contains(err.Error(), "unknown cell") {
		t.Errorf("want unknown-cell error, got %v", err)
	}

	// Port arity mismatch.
	lib2 := NewLibrary()
	i := New("leaf")
	i.DeclarePort("p")
	i.DeclarePort("q")
	lib2.Add(i)
	b := New("b")
	b.AddInstance("x", "leaf", "n") // 1 conn, 2 ports
	lib2.Add(b)
	if _, err := lib2.Flatten("b"); err == nil || !strings.Contains(err.Error(), "ports") {
		t.Errorf("want arity error, got %v", err)
	}

	// Recursion.
	lib3 := NewLibrary()
	r := New("r")
	r.DeclarePort("p")
	r.AddInstance("x", "r", "p")
	lib3.Add(r)
	if _, err := lib3.Flatten("r"); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("want recursion error, got %v", err)
	}
}

func TestFlattenMergesCapsAndAttrs(t *testing.T) {
	lib := NewLibrary()
	leaf := New("leaf")
	leaf.DeclarePort("p")
	leaf.AddCap("p", 3)
	leaf.SetAttr(leaf.Node("p"), "clock", "phi1")
	leaf.NMOS("m", "p", "vss", "q", 2, 0.75)
	lib.Add(leaf)

	top := New("t")
	top.DeclarePort("sig")
	top.AddCap("sig", 2)
	top.AddInstance("u", "leaf", "sig")
	lib.Add(top)

	flat, err := lib.Flatten("t")
	if err != nil {
		t.Fatal(err)
	}
	sig := flat.FindNode("sig")
	if flat.Nodes[sig].CapFF != 5 {
		t.Errorf("cap not merged: %g, want 5", flat.Nodes[sig].CapFF)
	}
	if flat.Nodes[sig].Attrs["clock"] != "phi1" {
		t.Error("attribute not propagated through flattening")
	}
}

func TestVtClassPreservedThroughFlatten(t *testing.T) {
	lib := NewLibrary()
	leaf := New("leaf")
	leaf.DeclarePort("p")
	d := leaf.NMOS("m", "p", "vss", "q", 2, 0.75)
	d.Vt = process.LowVt
	d.ExtraL = 0.045
	lib.Add(leaf)
	top := New("t")
	top.AddInstance("u", "leaf", "n")
	lib.Add(top)
	flat, err := lib.Flatten("t")
	if err != nil {
		t.Fatal(err)
	}
	if flat.Devices[0].Vt != process.LowVt || flat.Devices[0].ExtraL != 0.045 {
		t.Errorf("device params lost: %+v", flat.Devices[0])
	}
}

// Property: flattening preserves total device count for arbitrary
// instance trees (each level instantiates the previous k times).
func TestFlattenPreservesDeviceCountProperty(t *testing.T) {
	f := func(fanouts []uint8) bool {
		if len(fanouts) > 3 {
			fanouts = fanouts[:3]
		}
		lib := NewLibrary()
		leaf := New("leaf")
		leaf.DeclarePort("p")
		leaf.NMOS("m1", "p", "vss", "x", 2, 0.75)
		leaf.PMOS("m2", "p", "vdd", "x", 4, 0.75)
		lib.Add(leaf)
		prev := "leaf"
		want := 2
		for lvl, f := range fanouts {
			k := int(f%3) + 1
			c := New("lvl" + string(rune('a'+lvl)))
			c.DeclarePort("p")
			for i := 0; i < k; i++ {
				c.AddInstance("u"+string(rune('0'+i)), prev, "p")
			}
			lib.Add(c)
			prev = c.Name
			want *= k
		}
		flat, err := lib.Flatten(prev)
		if err != nil {
			return false
		}
		return len(flat.Devices) == want && flat.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
