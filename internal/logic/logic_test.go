package logic

import (
	"strings"
	"testing"
	"testing/quick"
)

func env(pairs ...interface{}) map[string]bool {
	m := make(map[string]bool)
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(bool)
	}
	return m
}

func TestExprEval(t *testing.T) {
	a, b, c := Var("a"), Var("b"), Var("c")
	cases := []struct {
		e    Expr
		env  map[string]bool
		want bool
	}{
		{True, nil, true},
		{False, nil, false},
		{a, env("a", true), true},
		{a, env("a", false), false},
		{a, nil, false}, // unbound reads false
		{Not(a), env("a", false), true},
		{And(a, b), env("a", true, "b", true), true},
		{And(a, b), env("a", true, "b", false), false},
		{Or(a, b), env("a", false, "b", true), true},
		{Or(a, b), nil, false},
		{Xor(a, b), env("a", true, "b", false), true},
		{Xor(a, b, c), env("a", true, "b", true, "c", true), true},
		{Ite(a, b, c), env("a", true, "b", true), true},
		{Ite(a, b, c), env("a", false, "c", true), true},
	}
	for _, cse := range cases {
		if got := cse.e.Eval(cse.env); got != cse.want {
			t.Errorf("%s under %v = %v, want %v", cse.e, cse.env, got, cse.want)
		}
	}
}

func TestConstantFolding(t *testing.T) {
	a := Var("a")
	if And(a, True).String() != "a" {
		t.Errorf("And(a, true) = %s", And(a, True))
	}
	if And(a, False) != False {
		t.Error("And(a, false) should fold to false")
	}
	if Or(a, False).String() != "a" {
		t.Errorf("Or(a, false) = %s", Or(a, False))
	}
	if Or(a, True) != True {
		t.Error("Or(a, true) should fold to true")
	}
	if Not(Not(a)) != a {
		t.Error("double negation should cancel")
	}
	if Not(True) != False || Not(False) != True {
		t.Error("constant negation broken")
	}
	if And() != True || Or() != False || Xor() != False {
		t.Error("empty operator identities broken")
	}
	// Xor constant folding: xor with true is negation.
	x := Xor(a, True)
	if !Equivalent(x, Not(a)) {
		t.Errorf("Xor(a, 1) = %s, want !a", x)
	}
}

func TestFlattening(t *testing.T) {
	a, b, c := Var("a"), Var("b"), Var("c")
	e := And(And(a, b), c).(*NaryExpr)
	if len(e.Xs) != 3 {
		t.Errorf("nested And should flatten to 3 terms, got %d", len(e.Xs))
	}
}

func TestVars(t *testing.T) {
	e := And(Var("z"), Or(Var("a"), Not(Var("m"))), Var("a"))
	got := Vars(e)
	want := []string{"a", "m", "z"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	a, b, c := Var("a"), Var("b"), Var("c")
	e := Or(And(a, b), Not(c))
	s := e.String()
	if !strings.Contains(s, "a&b") || !strings.Contains(s, "!c") {
		t.Errorf("String = %q", s)
	}
}

func TestEquivalence(t *testing.T) {
	a, b, c := Var("a"), Var("b"), Var("c")
	cases := []struct {
		x, y Expr
		want bool
	}{
		// De Morgan.
		{Not(And(a, b)), Or(Not(a), Not(b)), true},
		{Not(Or(a, b)), And(Not(a), Not(b)), true},
		// Distribution.
		{And(a, Or(b, c)), Or(And(a, b), And(a, c)), true},
		// XOR expansion.
		{Xor(a, b), Or(And(a, Not(b)), And(Not(a), b)), true},
		// Mux identity.
		{Ite(a, b, b), b, true},
		// Non-equivalences.
		{And(a, b), Or(a, b), false},
		{a, b, false},
		{Xor(a, b), Xor(a, b, c), false},
	}
	for _, cse := range cases {
		if got := Equivalent(cse.x, cse.y); got != cse.want {
			t.Errorf("Equivalent(%s, %s) = %v, want %v", cse.x, cse.y, got, cse.want)
		}
	}
}

func TestTautologySatisfiable(t *testing.T) {
	a := Var("a")
	if Satisfiable(Not(Or(a, Not(a)))) {
		t.Error("a|!a should be a tautology")
	}
	if !Satisfiable(Not(a)) {
		t.Error("a is not a tautology")
	}
	if !Satisfiable(a) {
		t.Error("a is satisfiable")
	}
	if Satisfiable(And(a, Not(a))) {
		t.Error("a&!a is unsatisfiable")
	}
}

func TestBDDCanonicity(t *testing.T) {
	m := NewBDD()
	a, b := m.Var("a"), m.Var("b")
	// Same function built two ways must be the same ref.
	f1 := m.Or(m.And(a, b), m.And(a, m.Not(b)))
	if f1 != a {
		t.Errorf("a&b | a&!b should reduce to a: ref %d vs %d", f1, a)
	}
	f2 := m.Not(m.Not(a))
	if f2 != a {
		t.Error("double negation should be identity on refs")
	}
	deMorgan1 := m.Not(m.And(a, b))
	deMorgan2 := m.Or(m.Not(a), m.Not(b))
	if deMorgan1 != deMorgan2 {
		t.Error("De Morgan forms should share a ref")
	}
}

// Eval evaluates f under an assignment by walking it from the root.
// Unassigned variables read false.
func (b *BDD) Eval(f Ref, env map[string]bool) bool {
	for f != RefTrue && f != RefFalse {
		n := b.nodes[f]
		if env[b.vars[n.level]] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == RefTrue
}

func TestBDDEvalMatchesExpr(t *testing.T) {
	// Property: for random expressions, BDD evaluation matches direct
	// expression evaluation on all 2^n assignments.
	exprs := []Expr{
		And(Var("a"), Var("b"), Var("c")),
		Or(Xor(Var("a"), Var("b")), And(Var("c"), Not(Var("d")))),
		Ite(Var("a"), Xor(Var("b"), Var("c")), Or(Var("b"), Var("d"))),
		Not(Or(Not(Var("a")), And(Var("b"), Var("c"), Var("d")))),
	}
	for _, e := range exprs {
		m := NewBDD()
		vars := Vars(e)
		for _, v := range vars {
			m.Var(v)
		}
		f := m.FromExpr(e)
		for i := 0; i < 1<<len(vars); i++ {
			env := make(map[string]bool)
			for k, v := range vars {
				env[v] = i&(1<<k) != 0
			}
			if m.Eval(f, env) != e.Eval(env) {
				t.Errorf("%s: BDD and Expr disagree at %v", e, env)
			}
		}
	}
}

func TestBDDAnySat(t *testing.T) {
	m := NewBDD()
	a, b := m.Var("a"), m.Var("b")
	f := m.And(a, m.Not(b))
	got := m.AnySat(f)
	if got == nil || !got["a"] || got["b"] {
		t.Errorf("AnySat = %v, want a=1 b=0", got)
	}
	if m.AnySat(RefFalse) != nil {
		t.Error("AnySat(false) should be nil")
	}
	if got := m.AnySat(RefTrue); got == nil || len(got) != 0 {
		t.Errorf("AnySat(true) = %v, want empty non-nil", got)
	}
}

func TestBDDRestrict(t *testing.T) {
	m := NewBDD()
	a, b := m.Var("a"), m.Var("b")
	f := m.Xor(a, b)
	if m.Restrict(f, "a", true) != m.Not(b) {
		t.Error("xor(1,b) should be !b")
	}
	if m.Restrict(f, "a", false) != b {
		t.Error("xor(0,b) should be b")
	}
	if m.Restrict(f, "zzz", true) != f {
		t.Error("restricting an absent variable should be identity")
	}
}

// Property: Equivalent agrees with brute-force table comparison for
// random 4-variable expressions generated from a compact genome.
func TestEquivalentMatchesBruteForceProperty(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	// decode builds a small expression from a byte genome.
	var decode func(g []byte, depth int) Expr
	decode = func(g []byte, depth int) Expr {
		if len(g) == 0 || depth > 3 {
			return Var(names[0])
		}
		op := g[0] % 6
		rest := g[1:]
		half := len(rest) / 2
		switch op {
		case 0, 1:
			return Var(names[g[0]%4])
		case 2:
			return Not(decode(rest, depth+1))
		case 3:
			return And(decode(rest[:half], depth+1), decode(rest[half:], depth+1))
		case 4:
			return Or(decode(rest[:half], depth+1), decode(rest[half:], depth+1))
		default:
			return Xor(decode(rest[:half], depth+1), decode(rest[half:], depth+1))
		}
	}
	f := func(g1, g2 []byte) bool {
		e1, e2 := decode(g1, 0), decode(g2, 0)
		brute := true
		for i := 0; i < 16; i++ {
			env := make(map[string]bool)
			for k, v := range names {
				env[v] = i&(1<<k) != 0
			}
			if e1.Eval(env) != e2.Eval(env) {
				brute = false
				break
			}
		}
		return Equivalent(e1, e2) == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTruthTable(t *testing.T) {
	a, b := Var("a"), Var("b")
	tt, err := TableFromExpr(And(a, b), []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if tt.Rows() != 4 {
		t.Fatalf("rows = %d", tt.Rows())
	}
	want := []bool{false, false, false, true}
	for i, w := range want {
		if tt.Get(i) != w {
			t.Errorf("row %d = %v, want %v", i, tt.Get(i), w)
		}
	}
}

func TestTruthTableLimit(t *testing.T) {
	inputs := make([]string, maxTTInputs+1)
	for i := range inputs {
		inputs[i] = Var("v").String() + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	if _, err := TableFromExpr(True, inputs); err == nil {
		t.Error("oversized table should be rejected")
	}
}

func TestTruthTableString(t *testing.T) {
	a := Var("a")
	tt, _ := TableFromExpr(Not(a), []string{"a"})
	s := tt.String()
	if !strings.Contains(s, "a | f") || !strings.Contains(s, "0 | 1") || !strings.Contains(s, "1 | 0") {
		t.Errorf("table rendering:\n%s", s)
	}
}
