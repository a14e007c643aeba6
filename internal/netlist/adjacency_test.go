package netlist_test

import (
	"slices"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/process"
)

// devicesOn, gatesOn and resistorsOn are the linear scans the
// adjacency index replaced, kept as its oracle.
func devicesOn(c *netlist.Circuit, id netlist.NodeID) []*netlist.Device {
	var out []*netlist.Device
	for _, d := range c.Devices {
		if d.Source == id || d.Drain == id {
			out = append(out, d)
		}
	}
	return out
}

func gatesOn(c *netlist.Circuit, id netlist.NodeID) []*netlist.Device {
	var out []*netlist.Device
	for _, d := range c.Devices {
		if d.Gate == id {
			out = append(out, d)
		}
	}
	return out
}

func resistorsOn(c *netlist.Circuit, id netlist.NodeID) []*netlist.Resistor {
	var out []*netlist.Resistor
	for _, r := range c.Resistors {
		if r.A == id || r.B == id {
			out = append(out, r)
		}
	}
	return out
}

// components is the oracle for Reach: a node reaches exactly the nodes
// of its connected component over the accepted device channels (and
// the resistors, when asked). It returns each node's component root.
func components(c *netlist.Circuit, conducts func(*netlist.Device) bool, resistors bool) []int {
	root := make([]int, len(c.Nodes))
	for i := range root {
		root[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if root[x] != x {
			root[x] = find(root[x])
		}
		return root[x]
	}
	for _, d := range c.Devices {
		if conducts == nil || conducts(d) {
			root[find(int(d.Source))] = find(int(d.Drain))
		}
	}
	for _, r := range c.Resistors {
		if resistors {
			root[find(int(r.A))] = find(int(r.B))
		}
	}
	for i := range root {
		find(i)
	}
	return root
}

// edgeCases hand-builds the shapes a terminal scan and a per-element
// index can disagree on.
func edgeCases() *netlist.Circuit {
	c := netlist.New("edges")
	c.DeclarePort("a")
	c.Node("isolated")
	c.NMOS("mshort", "a", "x", "x", 1, 0.5)   // source == drain
	c.NMOS("mon", "vdd", "x", "y", 1, 0.5)    // gated by a rail
	c.PMOS("mgnd", "vss", "vdd", "y", 1, 0.5) // gated by the other rail
	c.NMOS("mself", "y", "y", "z", 1, 0.5)    // gate on its own drain
	c.AddResistor("rself", "z", "z", 10)      // a one-node loop
	c.AddResistor("r1", "z", "w", 10)         // a three-resistor ring
	c.AddResistor("r2", "w", "v", 10)
	c.AddResistor("r3", "v", "z", 10)
	return c
}

func adjacencyInputs(t *testing.T) []*netlist.Circuit {
	lib, top := designs.DeepTree(3, 4, 0)
	deep, err := lib.Flatten(top)
	if err != nil {
		t.Fatal(err)
	}
	return []*netlist.Circuit{
		designs.InverterChain(6),
		designs.DominoAdder(8),
		designs.LatchPipeline(4, false),
		designs.LatchPipeline(4, true),
		designs.SRAMArray(4, 4, 0.045),
		designs.PassMux(4),
		designs.DCVSLComparator(4),
		designs.RegisterFile(4, 4),
		deep,
		edgeCases(),
	}
}

// TestAdjacencyMatchesScans checks every per-node list of the index
// against a scan of the circuit's elements: same elements, same order,
// each once.
func TestAdjacencyMatchesScans(t *testing.T) {
	for _, c := range adjacencyInputs(t) {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		adj := netlist.NewAdjacency(c)
		for i := range c.Nodes {
			id := netlist.NodeID(i)
			if got, want := adj.Channel(id), devicesOn(c, id); !slices.Equal(got, want) {
				t.Errorf("%s: Channel(%s) = %v, want %v", c.Name, c.NodeName(id), names(got), names(want))
			}
			if got, want := adj.Gated(id), gatesOn(c, id); !slices.Equal(got, want) {
				t.Errorf("%s: Gated(%s) = %v, want %v", c.Name, c.NodeName(id), names(got), names(want))
			}
			if got, want := adj.Resistors(id), resistorsOn(c, id); !slices.Equal(got, want) {
				t.Errorf("%s: Resistors(%s) = %d resistors, want %d", c.Name, c.NodeName(id), len(got), len(want))
			}
		}
	}
}

// TestAdjacencyReach checks the walk from every single-node seed
// against the connected components, with and without a device filter
// and resistors, and that it visits no node twice and stops when asked.
func TestAdjacencyReach(t *testing.T) {
	for _, c := range adjacencyInputs(t) {
		adj := netlist.NewAdjacency(c)
		nmos := func(d *netlist.Device) bool { return d.Type == process.NMOS }
		for _, filter := range []func(*netlist.Device) bool{nil, nmos} {
			for _, resistors := range []bool{false, true} {
				comp := components(c, filter, resistors)
				for i := range c.Nodes {
					seed := []netlist.NodeID{netlist.NodeID(i)}
					want := make([]bool, len(c.Nodes))
					for n := range want {
						want[n] = comp[n] == comp[i]
					}
					got := make([]bool, len(c.Nodes))
					adj.Reach(seed, filter, resistors, func(n netlist.NodeID) bool {
						if got[n] {
							t.Fatalf("%s: Reach visited %s twice", c.Name, c.NodeName(n))
						}
						got[n] = true
						return false
					})
					if !slices.Equal(got, want) {
						t.Fatalf("%s: Reach from %s (filter %v, resistors %v) disagrees with the oracle",
							c.Name, c.NodeName(seed[0]), filter != nil, resistors)
					}
				}
			}
		}
		if vdd := c.FindNode(netlist.VddName); vdd != netlist.InvalidNode {
			visits := 0
			stopped := adj.Reach([]netlist.NodeID{vdd}, nil, true, func(netlist.NodeID) bool {
				visits++
				return visits == 2
			})
			if visits > 2 || stopped != (visits == 2) {
				t.Errorf("%s: Reach returned %v after %d visits, want a stop at the second", c.Name, stopped, visits)
			}
		}
	}
}

func names(ds []*netlist.Device) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}
