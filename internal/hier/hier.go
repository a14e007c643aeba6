// Package hier models the paper's unusual use of design hierarchy
// (§2.1, Figure 1):
//
//	"Our hierarchy may be significantly different between different views
//	of the design (RTL, schematic, and layout). The designer is free to
//	move logic/circuit functions physically to achieve their performance
//	goals without having to maintain strict correspondence to the RTL
//	description. This causes irregular overlapping of schematic and RTL
//	boundaries."
//
// Each view is a tree of blocks over a shared universe of leaf elements
// (gates/functions). Because the trees partition the same leaves
// differently, a block in one view can span several blocks of another —
// the overlap report is exactly Figure 1's picture, computed rather than
// drawn.
package hier

import (
	"fmt"
	"sort"
	"strings"
)

// View identifies a design representation.
type View int

// The three views of §2.1.
const (
	ViewRTL View = iota
	ViewSchematic
	ViewLayout
)

// String returns the view name.
func (v View) String() string {
	switch v {
	case ViewRTL:
		return "rtl"
	case ViewSchematic:
		return "schematic"
	case ViewLayout:
		return "layout"
	default:
		return fmt.Sprintf("View(%d)", int(v))
	}
}

// Block is one node of a view's hierarchy.
type Block struct {
	// Name is the block's path-unique name.
	Name string
	// Children are nested blocks.
	Children []*Block
	// Leaves are the primitive elements directly owned by this block.
	Leaves []string
}

// Hierarchy is one view's block tree.
type Hierarchy struct {
	View View
	Root *Block

	index map[string]*Block
}

// New returns a hierarchy with an empty root block.
func New(v View, rootName string) *Hierarchy {
	root := &Block{Name: rootName}
	return &Hierarchy{View: v, Root: root, index: map[string]*Block{rootName: root}}
}

// AddBlock creates a block under the named parent.
func (h *Hierarchy) AddBlock(parent, name string) (*Block, error) {
	p, ok := h.index[parent]
	if !ok {
		return nil, fmt.Errorf("hier: unknown parent block %q", parent)
	}
	if _, dup := h.index[name]; dup {
		return nil, fmt.Errorf("hier: duplicate block %q", name)
	}
	b := &Block{Name: name}
	p.Children = append(p.Children, b)
	h.index[name] = b
	return b, nil
}

// AddLeaves assigns leaf elements to a block.
func (h *Hierarchy) AddLeaves(block string, leaves ...string) error {
	b, ok := h.index[block]
	if !ok {
		return fmt.Errorf("hier: unknown block %q", block)
	}
	b.Leaves = append(b.Leaves, leaves...)
	return nil
}

// LeafOwner returns a map leaf → owning block name, validating that each
// leaf appears exactly once.
func (h *Hierarchy) LeafOwner() (map[string]string, error) {
	owner := make(map[string]string)
	var walk func(b *Block) error
	walk = func(b *Block) error {
		for _, l := range b.Leaves {
			if prev, dup := owner[l]; dup {
				return fmt.Errorf("hier: leaf %q owned by both %q and %q", l, prev, b.Name)
			}
			owner[l] = b.Name
		}
		for _, c := range b.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(h.Root); err != nil {
		return nil, err
	}
	return owner, nil
}

// OverlapRow describes how one block of hierarchy A spreads over the
// blocks of hierarchy B — one box of Figure 1.
type OverlapRow struct {
	// Block is the A-side block.
	Block string
	// Spans maps B-side block names to the number of shared leaves.
	Spans map[string]int
	// Total is the A-block's leaf count.
	Total int
}

// Fragmentation returns how many B-blocks the A-block touches.
func (r OverlapRow) Fragmentation() int { return len(r.Spans) }

// Report is the full cross-view overlap analysis.
type Report struct {
	A, B View
	Rows []OverlapRow
	// OnlyInA/OnlyInB list leaves missing from the other view — a
	// correspondence error the CBV flow must surface.
	OnlyInA, OnlyInB []string
}

// MaxFragmentation returns the worst row's span count.
func (r *Report) MaxFragmentation() int {
	m := 0
	for _, row := range r.Rows {
		if f := row.Fragmentation(); f > m {
			m = f
		}
	}
	return m
}

// Aligned reports whether every A-block maps into exactly one B-block
// and the leaf universes match (the strict correspondence the paper
// declines to enforce).
func (r *Report) Aligned() bool {
	if len(r.OnlyInA) > 0 || len(r.OnlyInB) > 0 {
		return false
	}
	return r.MaxFragmentation() <= 1
}

// String renders the Figure 1 picture as text.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s vs %s hierarchy overlap:\n", r.A, r.B)
	for _, row := range r.Rows {
		names := make([]string, 0, len(row.Spans))
		for n := range row.Spans {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, n := range names {
			parts[i] = fmt.Sprintf("%s(%d)", n, row.Spans[n])
		}
		fmt.Fprintf(&sb, "  %-12s → %s\n", row.Block, strings.Join(parts, " + "))
	}
	if len(r.OnlyInA) > 0 {
		fmt.Fprintf(&sb, "  only in %s: %s\n", r.A, strings.Join(r.OnlyInA, ","))
	}
	if len(r.OnlyInB) > 0 {
		fmt.Fprintf(&sb, "  only in %s: %s\n", r.B, strings.Join(r.OnlyInB, ","))
	}
	return sb.String()
}

// Overlap computes the cross-view overlap report between two
// hierarchies over (nominally) the same leaf universe.
func Overlap(a, b *Hierarchy) (*Report, error) {
	ownA, err := a.LeafOwner()
	if err != nil {
		return nil, err
	}
	ownB, err := b.LeafOwner()
	if err != nil {
		return nil, err
	}
	rep := &Report{A: a.View, B: b.View}
	rows := make(map[string]*OverlapRow)
	var blockOrder []string
	for leaf, blkA := range ownA {
		row, ok := rows[blkA]
		if !ok {
			row = &OverlapRow{Block: blkA, Spans: make(map[string]int)}
			rows[blkA] = row
			blockOrder = append(blockOrder, blkA)
		}
		row.Total++
		if blkB, ok := ownB[leaf]; ok {
			row.Spans[blkB]++
		} else {
			rep.OnlyInA = append(rep.OnlyInA, leaf)
		}
	}
	for leaf := range ownB {
		if _, ok := ownA[leaf]; !ok {
			rep.OnlyInB = append(rep.OnlyInB, leaf)
		}
	}
	sort.Strings(blockOrder)
	sort.Strings(rep.OnlyInA)
	sort.Strings(rep.OnlyInB)
	for _, n := range blockOrder {
		rep.Rows = append(rep.Rows, *rows[n])
	}
	return rep, nil
}
