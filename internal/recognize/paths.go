package recognize

import (
	"sync"

	"repro/internal/netlist"
)

// The checks battery and the timing verifier both need the simple
// channel paths between a group node and a rail (or another group node):
// beta-ratio and edge-rate checks take the strongest path, writability
// takes the keeper paths, the timing verifier bounds drive resistance
// over all of them. Historically each package re-ran its own DFS per
// query; the enumeration now lives here, computed once per group shape
// and ends, and each (group, from, to) answer is kept and shared — a
// Result may be consulted concurrently (fleet workers share cached
// recognitions), so the memo is lock-protected and cached path slices
// must be treated as read-only.

// pathKey identifies one memoized enumeration.
type pathKey struct {
	group    int
	from, to netlist.NodeID
}

// shapePathKey identifies one path set of a group shape: the shape and
// the endCode of each end.
type shapePathKey struct {
	shape    int
	from, to int
}

// pathCache is the lazily built, mutex-guarded memo on a Result.
type pathCache struct {
	mu   sync.Mutex
	memo map[pathKey][][]*netlist.Device
	// shapes holds each path set enumerated for a group shape, so every
	// group of that shape maps it onto its own devices.
	shapes map[shapePathKey]pathSet
	// adj indexes each enumerated group's devices, by position, under
	// their channel terminals, so the DFS expands only the devices on
	// the frontier node instead of scanning the whole group per step.
	adj map[int]map[netlist.NodeID][]int32
}

// pathSet is the paths of one enumeration as device positions in
// Group.Devices: path i is flat[ends[i-1]:ends[i]], with ends[-1] = 0.
type pathSet struct {
	flat, ends []int32
}

// maxChannelPaths caps enumeration per query; giant anonymous groups
// already fall back to coarser analyses beyond it.
const maxChannelPaths = 256

// ChannelPaths returns the simple (node- and device-disjoint) channel
// paths from one node to another inside a group, never passing through a
// supply rail mid-path. Each path set is computed once per group shape:
// groups of one shape (shape.go) whose ends are the same nets of the
// shape, or rails, get the same paths over their own devices. Results
// are memoized on the Result and shared between callers: the returned
// slices must not be modified. A nil target (netlist.InvalidNode)
// returns nil.
func (r *Result) ChannelPaths(g *Group, from, to netlist.NodeID) [][]*netlist.Device {
	if to == netlist.InvalidNode {
		return nil
	}
	r.paths.mu.Lock()
	defer r.paths.mu.Unlock()
	pc := &r.paths
	if pc.memo == nil {
		pc.memo = make(map[pathKey][][]*netlist.Device)
		pc.shapes = make(map[shapePathKey]pathSet)
		pc.adj = make(map[int]map[netlist.NodeID][]int32)
	}
	key := pathKey{g.Index, from, to}
	if paths, ok := pc.memo[key]; ok {
		return paths
	}
	var ps pathSet
	if sk, ok := shapeKey(r.Circuit, g, from, to); ok {
		if ps, ok = pc.shapes[sk]; !ok {
			ps = pc.enumerate(r.Circuit, g, from, to)
			pc.shapes[sk] = ps
		}
	} else {
		ps = pc.enumerate(r.Circuit, g, from, to)
	}
	paths := ps.devices(g.Devices)
	pc.memo[key] = paths
	return paths
}

// shapeKey returns the key of g's path set from one node to another,
// or false when g has no shape or either end is not one of its nets.
func shapeKey(c *netlist.Circuit, g *Group, from, to netlist.NodeID) (shapePathKey, bool) {
	if g.shape == 0 {
		return shapePathKey{}, false
	}
	f, t := endCode(c, g, from), endCode(c, g, to)
	return shapePathKey{g.shape, f, t}, f >= 0 && t >= 0
}

// endCode returns a code for node n that every group of g's shape gives
// its corresponding net: codeVdd or codeVss for a rail, else codeNet
// plus the position of n's first appearance in the walk over the
// devices' gates, sources and drains that shape keys number nets by. It
// returns -1 when n is not a net of g.
func endCode(c *netlist.Circuit, g *Group, n netlist.NodeID) int {
	switch {
	case c.IsVdd(n):
		return codeVdd
	case c.IsVss(n):
		return codeVss
	}
	for i, d := range g.Devices {
		switch n {
		case d.Gate:
			return codeNet + 3*i
		case d.Source:
			return codeNet + 3*i + 1
		case d.Drain:
			return codeNet + 3*i + 2
		}
	}
	return -1
}

// enumerate runs enumeratePaths over g, indexing g's devices first.
func (pc *pathCache) enumerate(c *netlist.Circuit, g *Group, from, to netlist.NodeID) pathSet {
	adj, ok := pc.adj[g.Index]
	if !ok {
		adj = make(map[netlist.NodeID][]int32)
		for i, d := range g.Devices {
			adj[d.Source] = append(adj[d.Source], int32(i))
			if d.Drain != d.Source {
				adj[d.Drain] = append(adj[d.Drain], int32(i))
			}
		}
		pc.adj[g.Index] = adj
	}
	return enumeratePaths(c, g.Devices, adj, from, to)
}

// devices maps the path set onto devs. The paths share one backing
// array, each capped at its own end so an append cannot reach the next.
func (ps pathSet) devices(devs []*netlist.Device) [][]*netlist.Device {
	if len(ps.ends) == 0 {
		return nil
	}
	buf := make([]*netlist.Device, len(ps.flat))
	for i, p := range ps.flat {
		buf[i] = devs[p]
	}
	out := make([][]*netlist.Device, len(ps.ends))
	start := int32(0)
	for i, end := range ps.ends {
		out[i] = buf[start:end:end]
		start = end
	}
	return out
}

// enumeratePaths is the DFS walk shared by all consumers, over the
// devices devs indexes by position.
func enumeratePaths(c *netlist.Circuit, devs []*netlist.Device, adj map[netlist.NodeID][]int32, from, to netlist.NodeID) pathSet {
	var ps pathSet
	visited := map[netlist.NodeID]bool{from: true}
	used := make([]bool, len(devs))
	var cur []int32
	var walk func(at netlist.NodeID)
	walk = func(at netlist.NodeID) {
		if len(ps.ends) > maxChannelPaths {
			return
		}
		for _, i := range adj[at] {
			if used[i] {
				continue
			}
			d := devs[i]
			next := d.Drain
			if at == d.Drain {
				next = d.Source
			}
			if next == to {
				ps.flat = append(append(ps.flat, cur...), i)
				ps.ends = append(ps.ends, int32(len(ps.flat)))
				continue
			}
			if c.IsSupply(next) || visited[next] {
				continue
			}
			visited[next] = true
			used[i] = true
			cur = append(cur, i)
			walk(next)
			cur = cur[:len(cur)-1]
			used[i] = false
			visited[next] = false
		}
	}
	walk(from)
	return ps
}
