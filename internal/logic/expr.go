// Package logic provides boolean expressions, truth tables and binary
// decision diagrams (BDDs) for the full-custom toolkit.
//
// Three subsystems of the paper depend on it: circuit recognition (§2.3)
// deduces a logic function from transistor topology and needs a canonical
// form to name it; logical equivalence checking (§4.1) compares RTL
// functions against deduced circuit functions; and the RTL simulator
// evaluates combinational expressions.
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Expr is a boolean expression tree. Expressions are immutable; all
// construction goes through the factory functions so that trivial
// simplifications happen eagerly.
type Expr interface {
	// Eval evaluates the expression in an environment mapping variable
	// names to values. Unbound variables evaluate to false.
	Eval(env map[string]bool) bool
	// Vars appends the distinct variable names to the set.
	vars(set map[string]bool)
	// String renders a readable form: &, |, ^, !, identifiers, 0/1.
	String() string
}

// Var is a boolean variable reference.
type Var string

// Eval implements Expr.
func (v Var) Eval(env map[string]bool) bool { return env[string(v)] }
func (v Var) vars(set map[string]bool)      { set[string(v)] = true }

// String implements Expr.
func (v Var) String() string { return string(v) }

// Const is a boolean constant.
type Const bool

// True and False are the constant expressions.
const (
	True  = Const(true)
	False = Const(false)
)

// Eval implements Expr.
func (c Const) Eval(map[string]bool) bool { return bool(c) }
func (c Const) vars(map[string]bool)      {}

// String implements Expr.
func (c Const) String() string {
	if c {
		return "1"
	}
	return "0"
}

// NotExpr is logical negation.
type NotExpr struct{ X Expr }

// Eval implements Expr.
func (n *NotExpr) Eval(env map[string]bool) bool { return !n.X.Eval(env) }
func (n *NotExpr) vars(set map[string]bool)      { n.X.vars(set) }

// String implements Expr.
func (n *NotExpr) String() string { return "!" + parenthesize(n.X) }

// NaryExpr is an n-ary operator application (and/or/xor).
type NaryExpr struct {
	Op Op
	Xs []Expr
}

// Op identifies an n-ary boolean operator.
type Op int

// The supported n-ary operators.
const (
	OpAnd Op = iota
	OpOr
	OpXor
)

// String returns the operator's infix symbol.
func (o Op) String() string {
	switch o {
	case OpAnd:
		return "&"
	case OpOr:
		return "|"
	case OpXor:
		return "^"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Eval implements Expr.
func (e *NaryExpr) Eval(env map[string]bool) bool {
	switch e.Op {
	case OpAnd:
		for _, x := range e.Xs {
			if !x.Eval(env) {
				return false
			}
		}
		return true
	case OpOr:
		for _, x := range e.Xs {
			if x.Eval(env) {
				return true
			}
		}
		return false
	default: // OpXor
		v := false
		for _, x := range e.Xs {
			v = v != x.Eval(env)
		}
		return v
	}
}

func (e *NaryExpr) vars(set map[string]bool) {
	for _, x := range e.Xs {
		x.vars(set)
	}
}

// String implements Expr.
func (e *NaryExpr) String() string {
	parts := make([]string, len(e.Xs))
	for i, x := range e.Xs {
		parts[i] = parenthesize(x)
	}
	return strings.Join(parts, e.Op.String())
}

// parenthesize wraps n-ary subexpressions in parentheses for readability.
func parenthesize(e Expr) string {
	if n, ok := e.(*NaryExpr); ok && len(n.Xs) > 1 {
		return "(" + n.String() + ")"
	}
	return e.String()
}

// Not returns the negation of x, folding constants and double negation.
func Not(x Expr) Expr {
	switch v := x.(type) {
	case Const:
		return Const(!v)
	case *NotExpr:
		return v.X
	}
	return &NotExpr{x}
}

// And returns the conjunction of xs with constant folding and
// flattening. And() is True.
func And(xs ...Expr) Expr { return nary(OpAnd, xs) }

// Or returns the disjunction of xs with constant folding and flattening.
// Or() is False.
func Or(xs ...Expr) Expr { return nary(OpOr, xs) }

// Xor returns the exclusive-or of xs with constant folding. Xor() is
// False.
func Xor(xs ...Expr) Expr {
	var out []Expr
	parity := false
	for _, x := range xs {
		if c, ok := x.(Const); ok {
			parity = parity != bool(c)
			continue
		}
		out = append(out, x)
	}
	var e Expr
	switch len(out) {
	case 0:
		e = False
	case 1:
		e = out[0]
	default:
		e = &NaryExpr{OpXor, out}
	}
	if parity {
		return Not(e)
	}
	return e
}

// nary builds an and/or with identity/absorbing-element folding.
func nary(op Op, xs []Expr) Expr {
	identity := op == OpAnd // and: true is identity; or: false is
	var out []Expr
	for _, x := range xs {
		if c, ok := x.(Const); ok {
			if bool(c) == identity {
				continue // identity element: drop
			}
			return c // absorbing element: short-circuit
		}
		if out == nil {
			out = make([]Expr, 0, len(xs))
		}
		if n, ok := x.(*NaryExpr); ok && n.Op == op {
			out = append(out, n.Xs...)
			continue
		}
		out = append(out, x)
	}
	switch len(out) {
	case 0:
		return Const(identity)
	case 1:
		return out[0]
	}
	return &NaryExpr{op, out}
}

// Implies returns x → y.
func Implies(x, y Expr) Expr { return Or(Not(x), y) }

// Ite returns if-then-else: c&t | !c&e.
func Ite(c, t, e Expr) Expr { return Or(And(c, t), And(Not(c), e)) }

// Vars returns the sorted distinct variable names of e.
func Vars(e Expr) []string {
	set := make(map[string]bool)
	e.vars(set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Equivalent reports whether two expressions compute the same function,
// checked via canonical BDDs over the union of their supports.
func Equivalent(a, b Expr) bool {
	m := NewBDD()
	// Register the union of variables in sorted order for a shared
	// canonical ordering.
	for _, v := range Vars(Or(And(a, False), And(b, False), a, b)) {
		m.Var(v)
	}
	return m.FromExpr(a) == m.FromExpr(b)
}

// Tautology reports whether e is true for every assignment.
func Tautology(e Expr) bool { return Equivalent(e, True) }

// Satisfiable reports whether e is true for some assignment.
func Satisfiable(e Expr) bool { return !Equivalent(e, False) }

// Substitute returns e with every occurrence of the named variable
// replaced by the expression sub (with eager simplification).
func Substitute(e Expr, name string, sub Expr) Expr {
	switch v := e.(type) {
	case Const:
		return v
	case Var:
		if string(v) == name {
			return sub
		}
		return v
	case *NotExpr:
		return Not(Substitute(v.X, name, sub))
	case *NaryExpr:
		xs := make([]Expr, len(v.Xs))
		for i, x := range v.Xs {
			xs[i] = Substitute(x, name, sub)
		}
		switch v.Op {
		case OpAnd:
			return And(xs...)
		case OpOr:
			return Or(xs...)
		default:
			return Xor(xs...)
		}
	}
	panic(fmt.Sprintf("logic: unknown expression type %T", e))
}
