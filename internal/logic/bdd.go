package logic

import "fmt"

// Ref is a reference to a BDD node within one manager. The constants
// RefFalse and RefTrue are the terminal nodes; all other refs index the
// manager's node table.
type Ref int32

// Terminal node references.
const (
	RefFalse Ref = 0
	RefTrue  Ref = 1
)

// bddNode is an internal decision node: if var then hi else lo.
type bddNode struct {
	level  int32 // variable order position
	lo, hi Ref
}

// iteEntry is one computed-table entry: Ite(f, g, h) = r.
type iteEntry struct{ f, g, h, r Ref }

// BDD is a reduced ordered binary decision diagram manager with a
// hash-consed unique table and memoized apply operations. Canonicity
// guarantee: two functions over the same manager are equal iff their Refs
// are equal — this is what makes the §4.1 equivalence check a pointer
// comparison.
//
// Both tables are open-addressing arrays with linear probing, sized to
// powers of two and kept at most half full. The unique table holds node
// refs (0 marks an empty slot: no decision node is ref 0). The ITE memo
// is exact — entries are never evicted, so each (f, g, h) triple is
// computed once and Ite keeps its O(|f|·|g|·|h|) bound — and an entry
// with f == 0 is empty, since Ite settles a false condition before it
// consults the memo.
type BDD struct {
	nodes   []bddNode
	unique  []Ref
	vars    []string
	varIdx  map[string]int32
	memo    []iteEntry
	memoLen int
	// visit is Restrict's per-node memo: an entry belongs to the
	// current walk when its pass equals b.pass, so no walk clears the
	// slice.
	visit []visitEntry
	pass  uint32
}

// visitEntry is one node's scratch slot for the current walk.
type visitEntry struct {
	pass uint32
	r    Ref
}

// Initial table sizes: enough for a small gate's functions without a
// rehash, small enough that a manager per gate stays cheap.
const (
	initUnique = 32
	initMemo   = 32
)

// NewBDD returns an empty manager.
func NewBDD() *BDD {
	// Slots 0/1 of nodes are the terminals (level math.MaxInt32
	// semantics handled via level accessor); its capacity matches the
	// node count at which the unique table first grows.
	return &BDD{
		nodes:  make([]bddNode, 2, initUnique/2),
		unique: make([]Ref, initUnique),
		varIdx: make(map[string]int32),
		memo:   make([]iteEntry, initMemo),
	}
}

// Var returns the function of the named variable, registering it at the
// end of the current order if new. Variable order is registration order;
// callers that care should register in a deliberate order before building.
func (b *BDD) Var(name string) Ref {
	idx, ok := b.varIdx[name]
	if !ok {
		idx = int32(len(b.vars))
		b.vars = append(b.vars, name)
		b.varIdx[name] = idx
	}
	return b.mk(idx, RefFalse, RefTrue)
}

// level returns the variable level of a ref; terminals sort below all
// variables.
func (b *BDD) level(r Ref) int32 {
	if r == RefFalse || r == RefTrue {
		return int32(1 << 30)
	}
	return b.nodes[r].level
}

// hash3 mixes a triple into a table index seed. Each component is
// spread by its own odd multiplier and the high bits are folded down,
// because the tables index with the low bits.
func hash3(a, b, c Ref) uint64 {
	h := uint64(uint32(a))*0x9e3779b97f4a7c15 ^
		uint64(uint32(b))*0xc2b2ae3d27d4eb4f ^
		uint64(uint32(c))*0x165667b19e3779f9
	return h ^ h>>32
}

// mk returns the canonical node (level, lo, hi), applying the reduction
// rules (no redundant tests, shared subgraphs).
func (b *BDD) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	key := bddNode{level, lo, hi}
	mask := uint64(len(b.unique) - 1)
	i := hash3(Ref(level), lo, hi) & mask
	for ; b.unique[i] != 0; i = (i + 1) & mask {
		if r := b.unique[i]; b.nodes[r] == key {
			return r
		}
	}
	r := Ref(len(b.nodes))
	b.nodes = append(b.nodes, key)
	if 2*len(b.nodes) > len(b.unique) {
		b.growUnique()
	} else {
		b.unique[i] = r
	}
	return r
}

// growUnique doubles the unique table and reinserts every node.
func (b *BDD) growUnique() {
	b.unique = make([]Ref, 2*len(b.unique))
	mask := uint64(len(b.unique) - 1)
	for r := 2; r < len(b.nodes); r++ {
		n := b.nodes[r]
		i := hash3(Ref(n.level), n.lo, n.hi) & mask
		for b.unique[i] != 0 {
			i = (i + 1) & mask
		}
		b.unique[i] = Ref(r)
	}
}

// memoSlot returns the memo index holding (f, g, h), or the empty slot
// where it belongs.
func (b *BDD) memoSlot(f, g, h Ref) uint64 {
	mask := uint64(len(b.memo) - 1)
	i := hash3(f, g, h) & mask
	for {
		e := &b.memo[i]
		if e.f == 0 || (e.f == f && e.g == g && e.h == h) {
			return i
		}
		i = (i + 1) & mask
	}
}

// memoize records Ite(f, g, h) = r, growing the memo past half full.
func (b *BDD) memoize(f, g, h, r Ref) {
	if 2*(b.memoLen+1) > len(b.memo) {
		old := b.memo
		b.memo = make([]iteEntry, 2*len(old))
		for _, e := range old {
			if e.f != 0 {
				b.memo[b.memoSlot(e.f, e.g, e.h)] = e
			}
		}
	}
	b.memo[b.memoSlot(f, g, h)] = iteEntry{f, g, h, r}
	b.memoLen++
}

// Ite computes if-then-else(f, g, h), the universal BDD operation.
func (b *BDD) Ite(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == RefTrue:
		return g
	case f == RefFalse:
		return h
	case g == h:
		return g
	case g == RefTrue && h == RefFalse:
		return f
	}
	if e := b.memo[b.memoSlot(f, g, h)]; e.f != 0 {
		return e.r
	}
	// Split on the top variable.
	top := b.level(f)
	if l := b.level(g); l < top {
		top = l
	}
	if l := b.level(h); l < top {
		top = l
	}
	f0, f1 := b.cofactors(f, top)
	g0, g1 := b.cofactors(g, top)
	h0, h1 := b.cofactors(h, top)
	lo := b.Ite(f0, g0, h0)
	hi := b.Ite(f1, g1, h1)
	r := b.mk(top, lo, hi)
	b.memoize(f, g, h, r)
	return r
}

// beginWalk starts a scratch pass over the current node table and
// returns its stamp.
func (b *BDD) beginWalk() uint32 {
	if len(b.visit) < len(b.nodes) {
		b.visit = append(b.visit, make([]visitEntry, len(b.nodes)-len(b.visit))...)
	}
	b.pass++
	if b.pass == 0 { // stamp wrapped: clear stale entries
		clear(b.visit)
		b.pass = 1
	}
	return b.pass
}

// cofactors returns the negative and positive cofactors of r with respect
// to the variable at the given level.
func (b *BDD) cofactors(r Ref, level int32) (lo, hi Ref) {
	if b.level(r) != level {
		return r, r
	}
	n := b.nodes[r]
	return n.lo, n.hi
}

// Not returns ¬f.
func (b *BDD) Not(f Ref) Ref { return b.Ite(f, RefFalse, RefTrue) }

// And returns the conjunction of fs.
func (b *BDD) And(fs ...Ref) Ref {
	r := RefTrue
	for _, f := range fs {
		r = b.Ite(r, f, RefFalse)
	}
	return r
}

// Or returns the disjunction of fs.
func (b *BDD) Or(fs ...Ref) Ref {
	r := RefFalse
	for _, f := range fs {
		r = b.Ite(f, RefTrue, r)
	}
	return r
}

// Xor returns the exclusive-or of fs.
func (b *BDD) Xor(fs ...Ref) Ref {
	r := RefFalse
	for _, f := range fs {
		r = b.Ite(f, b.Not(r), r)
	}
	return r
}

// FromExpr builds the BDD of an expression.
func (b *BDD) FromExpr(e Expr) Ref {
	switch v := e.(type) {
	case Const:
		if v {
			return RefTrue
		}
		return RefFalse
	case Var:
		return b.Var(string(v))
	case *NotExpr:
		return b.Not(b.FromExpr(v.X))
	case *NaryExpr:
		refs := make([]Ref, len(v.Xs))
		for i, x := range v.Xs {
			refs[i] = b.FromExpr(x)
		}
		switch v.Op {
		case OpAnd:
			return b.And(refs...)
		case OpOr:
			return b.Or(refs...)
		default:
			return b.Xor(refs...)
		}
	}
	panic(fmt.Sprintf("logic: unknown expression type %T", e))
}

// AnySat returns one satisfying assignment of f (over the variables on
// the satisfying path; others are unconstrained) or nil if unsatisfiable.
func (b *BDD) AnySat(f Ref) map[string]bool {
	if f == RefFalse {
		return nil
	}
	env := make(map[string]bool)
	for f != RefTrue {
		n := b.nodes[f]
		if n.hi != RefFalse {
			env[b.vars[n.level]] = true
			f = n.hi
		} else {
			env[b.vars[n.level]] = false
			f = n.lo
		}
	}
	return env
}

// Restrict returns f with the named variable fixed to val.
func (b *BDD) Restrict(f Ref, name string, val bool) Ref {
	idx, ok := b.varIdx[name]
	if !ok {
		return f
	}
	return b.restrict(f, idx, val, b.beginWalk())
}

// restrict is Restrict's walk, memoized in the visit scratch under pass.
// Nodes it creates are never revisited within the pass, so the scratch
// sized at beginWalk covers every node it reads.
func (b *BDD) restrict(r Ref, idx int32, val bool, pass uint32) Ref {
	if r == RefTrue || r == RefFalse {
		return r
	}
	if v := b.visit[r]; v.pass == pass {
		return v.r
	}
	n := b.nodes[r]
	var out Ref
	switch {
	case n.level == idx && val:
		out = b.restrict(n.hi, idx, val, pass)
	case n.level == idx:
		out = b.restrict(n.lo, idx, val, pass)
	case n.level > idx:
		out = r
	default:
		out = b.mk(n.level, b.restrict(n.lo, idx, val, pass), b.restrict(n.hi, idx, val, pass))
	}
	b.visit[r] = visitEntry{pass, out}
	return out
}
