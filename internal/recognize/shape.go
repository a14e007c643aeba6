package recognize

import (
	"slices"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Full-custom datapaths repeat a few channel-connected shapes many times:
// a 16-bit domino adder has 160 groups of four shapes. Everything
// deriveFuncs and enumeratePaths compute is a function of a group's
// shape alone — its devices in order, their types, which nets their
// gates and channels share, which of those nets are rails, and which are
// outputs — up to the names of the nets. So each circuit recognizes a
// shape once: the first group of a shape derives its functions, and
// every later group renames them onto its own nets and shares the first
// group's BDD through a name translation. ChannelPaths keeps its path
// sets per shape the same way (paths.go).

// Shape codes number a group's nets: the rails first, then every other
// net by its first appearance in the device walk — gate, source, drain
// of each device in Group.Devices order. Gate nets and channel nets share
// one numbering, so groups that read their own nets as gates (keepers,
// cross-coupled cells) key by that feedback too.
const (
	codeVdd = iota
	codeVss
	codeNet // the first non-rail net
)

// shapeMemo is one Analyze call's record of the group shapes it has
// seen. Groups over maxPathDevices are never keyed: deriveFuncs skips
// them, and their shape index stays 0.
type shapeMemo struct {
	c *netlist.Circuit
	// nets lists the current group's non-rail nets by local index, and
	// local maps a node to its local index + 1 in the current group.
	nets  []netlist.NodeID
	local []int32
	key   []byte
	// ids maps a shape key to its index + 1, which Group.shape holds.
	ids    map[string]int
	shapes []shape
	leaves []logic.Expr // renamer scratch
}

func newShapeMemo(c *netlist.Circuit) *shapeMemo {
	return &shapeMemo{c: c, local: make([]int32, len(c.Nodes)), ids: make(map[string]int)}
}

// number numbers every net of g in shape order.
func (m *shapeMemo) number(g *Group) {
	for _, id := range m.nets {
		m.local[id] = 0
	}
	m.nets = m.nets[:0]
	for _, d := range g.Devices {
		for _, id := range [3]netlist.NodeID{d.Gate, d.Source, d.Drain} {
			if m.code(id) < 0 {
				m.nets = append(m.nets, id)
				m.local[id] = int32(len(m.nets))
			}
		}
	}
}

// code returns the node's shape code in the current group, or -1 if the
// group does not have it.
func (m *shapeMemo) code(id netlist.NodeID) int {
	switch {
	case m.c.IsVdd(id):
		return codeVdd
	case m.c.IsVss(id):
		return codeVss
	case m.local[id] > 0:
		return codeNet + int(m.local[id]) - 1
	}
	return -1
}

// shape is what the first group of a shape leaves for later ones.
type shape struct {
	first *Group
	// nets are the first group's nets by local index.
	nets []netlist.NodeID
	// vars maps the first group's net names to local indices; it is
	// built on the shape's first reuse.
	vars map[string]int32
}

// keyOf numbers g's nets and returns its shape key: the device count;
// per device its type and the codes of its gate, source and drain; then
// the codes of its outputs. Two different structures never share a key.
// Every code fits a byte: a keyed group has at most maxPathDevices
// devices, so at most 3·64 non-rail nets.
func (m *shapeMemo) keyOf(g *Group) []byte {
	m.number(g)
	k := append(m.key[:0], byte(len(g.Devices)))
	for _, d := range g.Devices {
		k = append(k, byte(d.Type), byte(m.code(d.Gate)), byte(m.code(d.Source)), byte(m.code(d.Drain)))
	}
	for _, o := range g.Outputs {
		k = append(k, byte(m.code(o)))
	}
	m.key = k
	return k
}

// reuse gives g the functions of the first group of its shape, if one
// came earlier, and reports whether it did. Otherwise it records g as
// its shape's first group, and the caller derives g's functions.
func (m *shapeMemo) reuse(g *Group, clocks map[netlist.NodeID]bool, bdds []groupBDD) bool {
	c := m.c
	if len(g.Devices) > maxPathDevices {
		return false
	}
	key := m.keyOf(g)
	id, ok := m.ids[string(key)]
	if !ok {
		m.shapes = append(m.shapes, shape{first: g, nets: slices.Clone(m.nets)})
		g.shape = len(m.shapes)
		m.ids[string(key)] = g.shape
		return false
	}
	g.shape = id
	s := &m.shapes[id-1]
	first := s.first
	if len(first.Funcs) == 0 {
		return true
	}
	if s.vars == nil {
		s.vars = make(map[string]int32, len(s.nets))
		for k, n := range s.nets {
			s.vars[c.NodeName(n)] = int32(k)
		}
	}
	rn := renamer{
		c:      c,
		vars:   s.vars,
		nets:   m.nets,
		leaves: append(m.leaves[:0], make([]logic.Expr, 2*len(s.nets))...),
	}
	for _, ff := range first.Funcs {
		f := &OutputFunc{
			Node:          g.Outputs[slices.Index(first.Outputs, ff.Node)],
			PullUp:        rn.expr(ff.PullUp),
			PullDown:      rn.expr(ff.PullDown),
			Complementary: ff.Complementary,
			CanFloat:      ff.CanFloat,
			CanFight:      ff.CanFight,
		}
		f.Function = nodeFunction(c, f, clocks)
		g.Funcs = append(g.Funcs, f)
	}
	m.leaves = rn.leaves
	fb := &bdds[first.Index]
	bdds[g.Index] = groupBDD{m: fb.m, refs: fb.refs, own: slices.Clone(m.nets), first: s.nets}
	return true
}

// renamer rewrites the first group's expressions onto a later group's
// nets. It rebuilds only the variable leaves and keeps every NotExpr and
// NaryExpr node's shape: rebuilding through logic.And and logic.Or would
// re-fold, and the result must be what deriveFuncs gives the group.
type renamer struct {
	c    *netlist.Circuit
	vars map[string]int32
	nets []netlist.NodeID
	// leaves caches, per local index k, the renamed variable at 2k and
	// its negation (a PMOS literal) at 2k+1.
	leaves []logic.Expr
}

func (rn *renamer) expr(e logic.Expr) logic.Expr {
	switch v := e.(type) {
	case logic.Var:
		return rn.leaf(v, false)
	case *logic.NotExpr:
		if x, ok := v.X.(logic.Var); ok {
			return rn.leaf(x, true)
		}
		return &logic.NotExpr{X: rn.expr(v.X)}
	case *logic.NaryExpr:
		xs := make([]logic.Expr, len(v.Xs))
		for i, x := range v.Xs {
			xs[i] = rn.expr(x)
		}
		return &logic.NaryExpr{Op: v.Op, Xs: xs}
	}
	return e // a constant
}

// leaf returns the renamed variable, or its negation.
func (rn *renamer) leaf(v logic.Var, neg bool) logic.Expr {
	k := int(rn.vars[string(v)])
	i := 2 * k
	if neg {
		i++
	}
	if rn.leaves[i] == nil {
		if neg {
			rn.leaves[i] = &logic.NotExpr{X: rn.leaf(v, false)}
		} else {
			rn.leaves[i] = logic.Var(rn.c.NodeName(rn.nets[k]))
		}
	}
	return rn.leaves[i]
}
