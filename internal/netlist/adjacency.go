package netlist

import "repro/internal/process"

// Adjacency answers the question every topology pass asks — which
// elements touch node n — for one circuit: the devices with a source or
// drain on n, the devices n gates, and the resistors on n. Each list is
// in element order and names an element once, even when both of its
// terminals are on n.
//
// The index is a snapshot of the circuit at construction. A pass that
// walks the graph builds one when it starts and drops it when it
// returns; nothing keeps one alive with a result, so cached reports do
// not pay for it.
type Adjacency struct {
	channel csr[*Device]
	gated   csr[*Device]
	res     csr[*Resistor]
}

// csr is a node-indexed multimap in compressed sparse row form: the
// elements on node n are elems[off[n]:off[n+1]].
type csr[T any] struct {
	off   []int32
	elems []T
}

// newCSR indexes elems by their two terminals (equal terminals list
// the element once), keeping element order within every node.
func newCSR[T any](nodes int, elems []T, ends func(T) (NodeID, NodeID)) csr[T] {
	// Count into off[n], prefix-sum so off[n] is the end of n's run,
	// then place elements back to front, leaving off[n] at the start.
	s := csr[T]{off: make([]int32, nodes+1)}
	for _, e := range elems {
		a, b := ends(e)
		s.off[a]++
		if b != a {
			s.off[b]++
		}
	}
	for n := 1; n <= nodes; n++ {
		s.off[n] += s.off[n-1]
	}
	s.elems = make([]T, s.off[nodes])
	for i := len(elems) - 1; i >= 0; i-- {
		a, b := ends(elems[i])
		s.off[a]--
		s.elems[s.off[a]] = elems[i]
		if b != a {
			s.off[b]--
			s.elems[s.off[b]] = elems[i]
		}
	}
	return s
}

// on returns node n's run, capped so an append cannot overwrite the
// next node's.
func (s *csr[T]) on(n NodeID) []T { return s.elems[s.off[n]:s.off[n+1]:s.off[n+1]] }

// NewAdjacency indexes c. Every terminal must be a node of c, which
// Validate checks.
func NewAdjacency(c *Circuit) *Adjacency {
	n := len(c.Nodes)
	return &Adjacency{
		channel: newCSR(n, c.Devices, func(d *Device) (NodeID, NodeID) { return d.Source, d.Drain }),
		gated:   newCSR(n, c.Devices, func(d *Device) (NodeID, NodeID) { return d.Gate, d.Gate }),
		res:     newCSR(n, c.Resistors, func(r *Resistor) (NodeID, NodeID) { return r.A, r.B }),
	}
}

// Channel returns the devices with a source or drain on n. The slice
// is shared: callers must not modify it.
func (a *Adjacency) Channel(n NodeID) []*Device { return a.channel.on(n) }

// Gated returns the devices whose gate is on n. The slice is shared.
func (a *Adjacency) Gated(n NodeID) []*Device { return a.gated.on(n) }

// Resistors returns the resistors with a terminal on n. The slice is
// shared.
func (a *Adjacency) Resistors(n NodeID) []*Resistor { return a.res.on(n) }

// Reach walks the circuit breadth first from the seeds. From each node
// it reaches it crosses the channel of every device on the node that
// conducts accepts (every device when conducts is nil) and, when
// resistors is set, every resistor on the node. visit sees each reached
// node once, seeds included; the walk stops as soon as visit returns
// true, and Reach reports whether it did.
func (a *Adjacency) Reach(seeds []NodeID, conducts func(*Device) bool, resistors bool, visit func(NodeID) bool) bool {
	seen := make(map[NodeID]bool, len(seeds))
	var queue []NodeID
	step := func(n NodeID) bool {
		if seen[n] {
			return false
		}
		seen[n] = true
		queue = append(queue, n)
		return visit(n)
	}
	for _, s := range seeds {
		if step(s) {
			return true
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, d := range a.Channel(u) {
			if conducts != nil && !conducts(d) {
				continue
			}
			other := d.Source
			if other == u {
				other = d.Drain
			}
			if step(other) {
				return true
			}
		}
		if !resistors {
			continue
		}
		for _, r := range a.Resistors(u) {
			other := r.A
			if other == u {
				other = r.B
			}
			if step(other) {
				return true
			}
		}
	}
	return false
}

// NodeLoads returns every node's nominal load capacitance in fF: its
// fixed capacitance, plus the gate capacitance of each device it gates,
// plus the diffusion capacitance of each device whose source or drain
// is on it (twice for a device with both there).
func NodeLoads(c *Circuit, p *process.Process) []float64 {
	loads := make([]float64, len(c.Nodes))
	for i, n := range c.Nodes {
		loads[i] = n.CapFF
	}
	for _, d := range c.Devices {
		loads[d.Gate] += p.CgateFF(d.W, d.Leff())
		loads[d.Source] += p.CdiffFF(d.W)
		loads[d.Drain] += p.CdiffFF(d.W)
	}
	return loads
}
