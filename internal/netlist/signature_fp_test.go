package netlist_test

import (
	"slices"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
)

// scrambled copies c with every non-supply node and every element
// renamed and with nodes, devices, resistors and instances created in
// reverse order: the same structure, textually unrelated.
func scrambled(c *netlist.Circuit) *netlist.Circuit {
	out := netlist.New("scrambled_" + c.Name)
	rename := func(id netlist.NodeID) string {
		if c.IsSupply(id) {
			return c.NodeName(id)
		}
		return "r_" + c.NodeName(id)
	}
	for i := len(c.Nodes) - 1; i >= 0; i-- {
		n := c.Nodes[i]
		id := out.Node(rename(netlist.NodeID(i)))
		out.Nodes[id].CapFF = n.CapFF
		for k, v := range n.Attrs {
			out.SetAttr(id, k, v)
		}
	}
	for _, p := range c.Ports {
		out.DeclarePort(rename(p))
	}
	for i := len(c.Devices) - 1; i >= 0; i-- {
		d := c.Devices[i]
		nd := out.AddDevice("r_"+d.Name, d.Type, rename(d.Gate), rename(d.Drain), rename(d.Source), rename(d.Bulk), d.W, d.L)
		nd.Vt, nd.ExtraL = d.Vt, d.ExtraL
	}
	for i := len(c.Resistors) - 1; i >= 0; i-- {
		r := c.Resistors[i]
		out.AddResistor("r_"+r.Name, rename(r.B), rename(r.A), r.Ohms)
	}
	for i := len(c.Instances) - 1; i >= 0; i-- {
		inst := c.Instances[i]
		conns := make([]string, len(inst.Conns))
		for j, id := range inst.Conns {
			conns[j] = rename(id)
		}
		out.AddInstance("r_"+inst.Name, inst.Cell, conns...)
	}
	return out
}

// TestSignaturesFingerprintMatchesCircuit pins the equivalence the
// fleet's cache key rests on: the fingerprint digested from a signature
// table is byte-equal to Circuit.Fingerprint, on every design generator
// and a flattened hierarchy, and on renamed and reordered copies of
// each. Digesting must not disturb the table's per-object labels.
func TestSignaturesFingerprintMatchesCircuit(t *testing.T) {
	lib, top := designs.DeepTree(3, 4, 0)
	deep, err := lib.Flatten(top)
	if err != nil {
		t.Fatal(err)
	}
	corpus := []*netlist.Circuit{
		designs.InverterChain(6),
		designs.DominoAdder(8),
		designs.LatchPipeline(4, false),
		designs.LatchPipeline(4, true),
		designs.SRAMArray(4, 4, 0),
		designs.SRAMArray(4, 4, 0.045),
		designs.PassMux(4),
		designs.DCVSLComparator(4),
		designs.RegisterFile(4, 4),
		deep,
	}
	// A deck-level cell with a resistor, an instance, capacitance, an
	// attribute and a non-default Vt, so every label kind is digested.
	misc := netlist.New("misc")
	misc.DeclarePort("a")
	misc.DeclarePort("y")
	misc.NMOS("mn", "a", "vss", "m", 2, 0.75).ExtraL = 0.045
	misc.PMOS("mp", "a", "vdd", "m", 4, 0.75)
	misc.AddResistor("r1", "m", "y", 120)
	misc.AddInstance("x1", "inv", "y", "z")
	misc.AddCap("z", 3)
	misc.SetAttr(misc.Node("z"), "clock", "phi1")
	corpus = append(corpus, misc)

	for _, c := range corpus {
		want := c.Fingerprint()
		for _, v := range []*netlist.Circuit{c, scrambled(c)} {
			sigs := netlist.ComputeSignatures(v)
			labels := func() []uint64 {
				var out []uint64
				for _, n := range v.Nodes {
					out = append(out, sigs.SubjectSig(n.Name))
				}
				for _, d := range v.Devices {
					out = append(out, sigs.SubjectSig(d.Name))
				}
				return out
			}
			before := labels()
			if got := sigs.Fingerprint(); got != v.Fingerprint() {
				t.Errorf("%s: Signatures.Fingerprint %s != Circuit.Fingerprint %s", v.Name, got.Short(), v.Fingerprint().Short())
			}
			if got := sigs.Fingerprint(); got != want {
				t.Errorf("%s: fingerprint %s, want %s (original %s)", v.Name, got.Short(), want.Short(), c.Name)
			}
			if !slices.Equal(labels(), before) {
				t.Errorf("%s: Fingerprint moved the per-object labels", v.Name)
			}
			for i, d := range v.Devices {
				if j, ok := sigs.DeviceIndex(d.Name); !ok || j != i {
					t.Errorf("%s: DeviceIndex(%q) = %d, %v, want %d", v.Name, d.Name, j, ok, i)
				}
			}
			if _, ok := sigs.DeviceIndex("no-such-device"); ok {
				t.Errorf("%s: DeviceIndex found a device that is not there", v.Name)
			}
		}
	}
}
