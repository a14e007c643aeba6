package logic

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// propVars is the variable pool of the BDD property test; tables over
// it have 1<<len(propVars) rows.
var propVars = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}

// table is a truth table over propVars: row r assigns variable k the
// value of bit k of r.
type table [(1 << 10) / 64]uint64

func (t *table) get(r int) bool { return t[r/64]&(1<<(r%64)) != 0 }
func (t *table) set(r int)      { t[r/64] |= 1 << (r % 64) }

// exprTable evaluates e on every row.
func exprTable(t *testing.T, e Expr) table {
	t.Helper()
	tt, err := TableFromExpr(e, propVars)
	if err != nil {
		t.Fatal(err)
	}
	var out table
	copy(out[:], tt.Bits)
	return out
}

// refTables returns the truth table of every node in m, read off the
// node structure: a node's row takes its hi child's value where its
// variable is 1 and its lo child's value where it is 0.
func refTables(m *BDD) []table {
	col := make(map[string]int, len(propVars))
	for k, v := range propVars {
		col[v] = k
	}
	out := make([]table, len(m.nodes))
	for r := 0; r < 1<<len(propVars); r++ {
		out[RefTrue].set(r)
	}
	// Children always precede their parents in the node table.
	for ref := 2; ref < len(m.nodes); ref++ {
		n := m.nodes[ref]
		k := col[m.vars[n.level]]
		for r := 0; r < 1<<len(propVars); r++ {
			child := n.lo
			if r&(1<<k) != 0 {
				child = n.hi
			}
			if out[child].get(r) {
				out[ref].set(r)
			}
		}
	}
	return out
}

// randExpr builds a seeded random expression over propVars.
func randExpr(rng *obs.RNG, depth int) Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(20) == 0 {
			return Const(rng.Intn(2) == 1)
		}
		return Var(propVars[rng.Intn(len(propVars))])
	}
	switch rng.Intn(4) {
	case 0:
		return Not(randExpr(rng, depth-1))
	case 1:
		return And(randExpr(rng, depth-1), randExpr(rng, depth-1))
	case 2:
		return Or(randExpr(rng, depth-1), randExpr(rng, depth-1))
	default:
		return Xor(randExpr(rng, depth-1), randExpr(rng, depth-1))
	}
}

// TestBDDKernelMatchesTruthTables builds several hundred seeded random
// expressions in one manager, enough to grow its unique table and ITE
// memo several times over, and checks the kernel against exhaustive
// truth tables: every ref's node structure computes its expression,
// two refs are equal exactly when their tables are, and And, Or, Not
// and Restrict agree with the same operations on tables.
func TestBDDKernelMatchesTruthTables(t *testing.T) {
	rng := obs.NewRNG(16)
	m := NewBDD()
	// A seeded variable order, so the order is not the pool's.
	order := append([]string(nil), propVars...)
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for _, v := range order {
		m.Var(v)
	}

	const n = 400
	exprs := make([]Expr, n)
	refs := make([]Ref, n)
	for i := range exprs {
		exprs[i] = randExpr(rng, 6)
		refs[i] = m.FromExpr(exprs[i])
	}
	type opCase struct {
		name string
		ref  Ref
		want table
	}
	var ops []opCase
	for k := 0; k < n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		ti, tj := exprTable(t, exprs[i]), exprTable(t, exprs[j])
		var and, or, not table
		for w := range ti {
			and[w], or[w], not[w] = ti[w]&tj[w], ti[w]|tj[w], ^ti[w]
		}
		ops = append(ops,
			opCase{fmt.Sprintf("And(%d,%d)", i, j), m.And(refs[i], refs[j]), and},
			opCase{fmt.Sprintf("Or(%d,%d)", i, j), m.Or(refs[i], refs[j]), or},
			opCase{fmt.Sprintf("Not(%d)", i), m.Not(refs[i]), not})
		v := rng.Intn(len(propVars))
		val := rng.Intn(2) == 1
		var restricted table
		for r := 0; r < 1<<len(propVars); r++ {
			src := r &^ (1 << v)
			if val {
				src |= 1 << v
			}
			if ti.get(src) {
				restricted.set(r)
			}
		}
		ops = append(ops, opCase{fmt.Sprintf("Restrict(%d,%s,%v)", i, propVars[v], val),
			m.Restrict(refs[i], propVars[v], val), restricted})
	}
	if len(m.unique) < initUnique<<3 || len(m.memo) < initMemo<<3 {
		t.Fatalf("tables grew to %d unique / %d memo slots; want at least three doublings of %d / %d",
			len(m.unique), len(m.memo), initUnique, initMemo)
	}

	tables := refTables(m)
	for i, e := range exprs {
		if tables[refs[i]] != exprTable(t, e) {
			t.Fatalf("expr %d %s: ref %d computes a different function", i, e, refs[i])
		}
	}
	for _, op := range ops {
		if tables[op.ref] != op.want {
			t.Errorf("%s: ref %d disagrees with the truth table", op.name, op.ref)
		}
	}
	// Canonicity: refs are equal exactly when functions are, across the
	// expressions and every operation result.
	all := append([]Ref(nil), refs...)
	for _, op := range ops {
		all = append(all, op.ref)
	}
	// A ref has one table, so distinct functions get distinct refs; the
	// converse is checked here.
	seen := make(map[table]Ref)
	for _, r := range all {
		if prev, ok := seen[tables[r]]; ok && prev != r {
			t.Fatalf("refs %d and %d compute the same function", prev, r)
		}
		seen[tables[r]] = r
	}
	t.Logf("%d refs, %d distinct functions, %d nodes, %d unique / %d memo slots", len(all), len(seen), len(m.nodes)-2, len(m.unique), len(m.memo))
}
