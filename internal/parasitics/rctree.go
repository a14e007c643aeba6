// Package parasitics models extracted RC interconnect for the timing and
// electrical verification tools.
//
// §4.3 of the paper identifies the accuracy of parasitic modelling as a
// main determinant of timing-verification quality: "Accuracy of minimum
// and maximum capacitance calculation (fixed, coupling, and transistor
// input)", "Accuracy of RC interconnect models", and the observation
// (Figure 5) that "real gates have multiple inputs/outputs" — a large
// driver is many fingers distributed along an RC grid, not a single
// lumped port.
//
// The package provides three levels of fidelity:
//
//   - RC trees with Elmore delay (the workhorse bound used by the static
//     timing verifier),
//   - min/max capacitance bounding with Miller coupling factors and
//     manufacturing tolerance (the paper's prescription for race-safe
//     analysis), and
//   - a small implicit-Euler transient solver for arbitrary RC networks,
//     standing in for SPICE as the accuracy reference (the paper: "using
//     SPICE on large structures is not feasible"; on our small structures
//     it is, so we use the same trick to calibrate pessimism).
package parasitics

import "fmt"

// Coupling is a capacitive coupling from a tree node to an aggressor net.
type Coupling struct {
	// Aggressor names the coupled net (informational).
	Aggressor string
	// CapFF is the drawn coupling capacitance in fF.
	CapFF float64
}

// TreeNode is one node of an RC tree.
type TreeNode struct {
	// Name identifies the node.
	Name string
	// CapFF is the grounded capacitance at the node in fF.
	CapFF float64
	// Couplings are coupling capacitances to other nets.
	Couplings []Coupling
	// parent is the index of the parent (-1 at root).
	parent int
	// rOhm is the resistance of the segment from parent to this node.
	rOhm float64
	// children caches the child indices.
	children []int
}

// Tree is an RC tree rooted at a driver node. Node 0 is always the root.
type Tree struct {
	nodes []TreeNode
	index map[string]int
}

// NewTree returns a tree containing only the named root.
func NewTree(root string) *Tree {
	t := &Tree{index: map[string]int{root: 0}}
	t.nodes = append(t.nodes, TreeNode{Name: root, parent: -1})
	return t
}

// AddSegment adds a wire segment from an existing node to a new node with
// the given resistance (Ω) and grounded capacitance (fF) at the far end.
func (t *Tree) AddSegment(from, name string, rOhm, capFF float64) error {
	pi, ok := t.index[from]
	if !ok {
		return fmt.Errorf("parasitics: unknown node %q", from)
	}
	if _, dup := t.index[name]; dup {
		return fmt.Errorf("parasitics: duplicate node %q", name)
	}
	if rOhm < 0 || capFF < 0 {
		return fmt.Errorf("parasitics: negative R or C on segment %s→%s", from, name)
	}
	i := len(t.nodes)
	t.nodes = append(t.nodes, TreeNode{Name: name, parent: pi, rOhm: rOhm, CapFF: capFF})
	t.index[name] = i
	t.nodes[pi].children = append(t.nodes[pi].children, i)
	return nil
}

// AddCap adds grounded capacitance to an existing node.
func (t *Tree) AddCap(name string, capFF float64) error {
	i, ok := t.index[name]
	if !ok {
		return fmt.Errorf("parasitics: unknown node %q", name)
	}
	t.nodes[i].CapFF += capFF
	return nil
}

// MillerRange bounds the effective multiplier on coupling capacitance.
// A quiet aggressor contributes 1×; an aggressor switching the same way
// contributes as little as 0×; an aggressor switching opposite
// contributes up to 2× (the "miller coupling capacitance multiplicative
// effects" of §4.3).
type MillerRange struct {
	Min, Max float64
}

// DefaultMiller is the conventional 0–2× window.
var DefaultMiller = MillerRange{Min: 0, Max: 2}

// QuietMiller treats all aggressors as quiet.
var QuietMiller = MillerRange{Min: 1, Max: 1}

// Bounds is a min/max pair (units per context).
type Bounds struct {
	Min, Max float64
}

// NodeCapBounds returns the min/max effective capacitance in fF at one
// node: grounded cap (with manufacturing tolerance mfgTol, e.g. 0.15 for
// ±15%) plus coupling scaled by the Miller window and tolerance.
func (t *Tree) NodeCapBounds(i int, m MillerRange, mfgTol float64) Bounds {
	n := &t.nodes[i]
	couple := 0.0
	for _, c := range n.Couplings {
		couple += c.CapFF
	}
	return Bounds{
		Min: (n.CapFF + couple*m.Min) * (1 - mfgTol),
		Max: (n.CapFF + couple*m.Max) * (1 + mfgTol),
	}
}

// ElmorePS returns the Elmore delay in picoseconds from a driver with
// source resistance rDrvOhm at the root to the named sink, using nominal
// capacitances. Ω·fF = 10⁻³ ps.
func (t *Tree) ElmorePS(rDrvOhm float64, sink string) (float64, error) {
	b, err := t.ElmoreBoundsPS(rDrvOhm, sink, QuietMiller, 0)
	return b.Max, err
}

// ElmoreBoundsPS returns min/max Elmore delay in ps to the sink under the
// Miller window and manufacturing tolerance — the bounded delays §4.3
// requires for race-safe verification. Resistance tolerance tracks the
// capacitance tolerance (correlated corner).
func (t *Tree) ElmoreBoundsPS(rDrvOhm float64, sink string, m MillerRange, mfgTol float64) (Bounds, error) {
	si, ok := t.index[sink]
	if !ok {
		return Bounds{}, fmt.Errorf("parasitics: unknown sink %q", sink)
	}
	// Downstream capacitance of every node.
	nmin := make([]float64, len(t.nodes))
	nmax := make([]float64, len(t.nodes))
	for i := range t.nodes {
		b := t.NodeCapBounds(i, m, mfgTol)
		nmin[i], nmax[i] = b.Min, b.Max
	}
	downMin := make([]float64, len(t.nodes))
	downMax := make([]float64, len(t.nodes))
	// Children have larger indices than parents (construction order),
	// so one reverse sweep accumulates subtree sums.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		downMin[i] += nmin[i]
		downMax[i] += nmax[i]
		if p := t.nodes[i].parent; p >= 0 {
			downMin[p] += downMin[i]
			downMax[p] += downMax[i]
		}
	}
	// Elmore delay to sink: Σ over segments on root→sink path of
	// R_seg · C_downstream(seg) plus the driver resistance times total.
	var b Bounds
	b.Min = rDrvOhm * (1 - mfgTol) * downMin[0]
	b.Max = rDrvOhm * (1 + mfgTol) * downMax[0]
	for i := si; i > 0; i = t.nodes[i].parent {
		r := t.nodes[i].rOhm
		b.Min += r * (1 - mfgTol) * downMin[i]
		b.Max += r * (1 + mfgTol) * downMax[i]
	}
	// Ω·fF → ps.
	b.Min *= 1e-3 * ln2over1 // 0.69·RC for 50% crossing
	b.Max *= 1e-3 * ln2over1
	return b, nil
}

// ln2over1 is ln 2, the 50%-crossing factor for a single-pole response.
const ln2over1 = 0.6931471805599453

// Line builds an n-segment RC π-ladder from root "in" to sink
// "out", distributing total resistance and capacitance evenly. It is the
// standard discretization of a uniform wire; names of interior nodes are
// "w1".."w(n-1)".
func Line(n int, totalROhm, totalCapFF float64) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("parasitics: Line needs ≥1 segment, got %d", n)
	}
	t := NewTree("in")
	r := totalROhm / float64(n)
	c := totalCapFF / float64(n)
	// Half-cap at the near end.
	t.nodes[0].CapFF = c / 2
	prev := "in"
	for i := 1; i <= n; i++ {
		name := "out"
		if i < n {
			name = fmt.Sprintf("w%d", i)
		}
		capHere := c
		if i == n {
			capHere = c / 2
		}
		if err := t.AddSegment(prev, name, r, capHere); err != nil {
			return nil, err
		}
		prev = name
	}
	return t, nil
}
