package parasitics

import (
	"fmt"
	"math"
)

// Network is a general linear RC network for transient analysis — the
// toolkit's SPICE stand-in. Nodes carry grounded capacitance; resistors
// connect node pairs; voltage sources pin nodes through a source
// resistance. Node 0 is ground.
type Network struct {
	names []string
	index map[string]int
	capFF []float64
	res   []resistor
	srcs  []source
}

type resistor struct {
	a, b int
	ohm  float64
}

type source struct {
	node int
	ohm  float64
	// level returns the source voltage at time t (ps).
	level func(tPS float64) float64
}

// NewNetwork returns an empty network with only the ground node.
func NewNetwork() *Network {
	n := &Network{index: map[string]int{"gnd": 0}}
	n.names = append(n.names, "gnd")
	n.capFF = append(n.capFF, 0)
	return n
}

// node interns a node name.
func (n *Network) node(name string) int {
	if i, ok := n.index[name]; ok {
		return i
	}
	i := len(n.names)
	n.names = append(n.names, name)
	n.capFF = append(n.capFF, 0)
	n.index[name] = i
	return i
}

// AddCap adds grounded capacitance (fF) at a node.
func (n *Network) AddCap(name string, fF float64) {
	n.capFF[n.node(name)] += fF
}

// AddRes adds a resistor (Ω) between two nodes.
func (n *Network) AddRes(a, b string, ohm float64) error {
	if ohm <= 0 {
		return fmt.Errorf("parasitics: resistor %s-%s must be positive, got %g", a, b, ohm)
	}
	n.res = append(n.res, resistor{n.node(a), n.node(b), ohm})
	return nil
}

// TransientResult holds sampled waveforms.
type TransientResult struct {
	// TimesPS are the sample instants.
	TimesPS []float64
	// V maps node name to its waveform (same length as TimesPS).
	V map[string][]float64
}

// CrossingPS returns the first time the node's waveform crosses the given
// voltage (linear interpolation), or NaN if it never does.
func (r *TransientResult) CrossingPS(node string, v float64) float64 {
	w, ok := r.V[node]
	if !ok || len(w) == 0 {
		return math.NaN()
	}
	rising := w[len(w)-1] > w[0]
	for i := 1; i < len(w); i++ {
		crossed := (rising && w[i-1] < v && w[i] >= v) || (!rising && w[i-1] > v && w[i] <= v)
		if crossed {
			f := (v - w[i-1]) / (w[i] - w[i-1])
			return r.TimesPS[i-1] + f*(r.TimesPS[i]-r.TimesPS[i-1])
		}
	}
	return math.NaN()
}

// Transient integrates the network from the given initial node voltages
// (missing names start at 0) for duration picoseconds with the given step,
// using implicit (backward) Euler with Gauss–Seidel solves. It is
// unconditionally stable, so the step only limits accuracy.
func (n *Network) Transient(initial map[string]float64, durationPS, stepPS float64) (*TransientResult, error) {
	if durationPS <= 0 || stepPS <= 0 {
		return nil, fmt.Errorf("parasitics: duration and step must be positive")
	}
	nn := len(n.names)
	v := make([]float64, nn)
	for name, val := range initial {
		if i, ok := n.index[name]; ok {
			v[i] = val
		}
	}
	v[0] = 0 // ground

	// Conductance structure.
	type edge struct {
		to int
		g  float64
	}
	adj := make([][]edge, nn)
	for _, r := range n.res {
		g := 1 / r.ohm
		adj[r.a] = append(adj[r.a], edge{r.b, g})
		adj[r.b] = append(adj[r.b], edge{r.a, g})
	}
	// fF/ps → Siemens conversion: 1 fF/ps = 1e-3 S.
	const ffPerPS = 1e-3

	steps := int(durationPS/stepPS) + 1
	res := &TransientResult{V: make(map[string][]float64, nn)}
	for i := 1; i < nn; i++ {
		res.V[n.names[i]] = make([]float64, 0, steps)
	}
	record := func(t float64) {
		res.TimesPS = append(res.TimesPS, t)
		for i := 1; i < nn; i++ {
			res.V[n.names[i]] = append(res.V[n.names[i]], v[i])
		}
	}
	record(0)

	next := make([]float64, nn)
	for s := 1; s <= steps; s++ {
		t := float64(s) * stepPS
		copy(next, v)
		// Gauss–Seidel sweeps for the implicit system.
		for sweep := 0; sweep < 60; sweep++ {
			maxDelta := 0.0
			for i := 1; i < nn; i++ {
				gc := n.capFF[i] * ffPerPS / stepPS
				num := gc * v[i]
				den := gc
				for _, e := range adj[i] {
					num += e.g * next[e.to]
					den += e.g
				}
				for _, src := range n.srcs {
					if src.node == i {
						g := 1 / src.ohm
						num += g * src.level(t)
						den += g
					}
				}
				if den == 0 {
					continue // isolated node with no cap: hold
				}
				nv := num / den
				if d := math.Abs(nv - next[i]); d > maxDelta {
					maxDelta = d
				}
				next[i] = nv
			}
			if maxDelta < 1e-9 {
				break
			}
		}
		copy(v, next)
		record(t)
	}
	return res, nil
}
