// Package equiv implements RTL↔circuit logical equivalence checking.
//
// §4.1: "The second method for functional correctness of circuits is
// logical equivalence checking. This does not require input stimulus,
// however a common difficulty is the amount of logical difference that
// an equivalence-checking tool can accommodate ... the designer has the
// freedom to create a circuit that behaves the same with different state
// declarations and state transitions. For instance, a counter coded in
// the Behavioral/RTL model with an output every five events may be
// implemented in the circuit as a shift register with a cyclic value of
// five."
//
// Two engines are provided:
//
//   - Combinational: FCL expressions are bit-blasted into boolean
//     functions over input bits; recognized circuit functions are
//     composed through the netlist; both sides meet in one BDD manager
//     where equivalence is a pointer comparison.
//
//   - Sequential: two FCL designs with arbitrary, differently-encoded
//     state are compared by joint reachability over the product of their
//     state spaces (exactly the counter vs. shift-register situation).
package equiv

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/rtl"
)

// bitVec is the bit-blasted form of an FCL expression: one boolean
// function per bit, LSB first.
type bitVec []logic.Expr

// BitVar names the boolean variable for a signal bit. Both the RTL and
// circuit sides of a comparison must map their inputs into this shared
// namespace.
func BitVar(signal string, bit int) string {
	return fmt.Sprintf("%s[%d]", signal, bit)
}

// blaster converts FCL expressions to bit vectors.
type blaster struct {
	design *rtl.Design
	// widthOf resolves signal widths; isState reports registers (which
	// a combinational check must not treat as free inputs).
	widthOf func(name string) (int, bool)
	isState func(name string) bool
	// defs resolves internally assigned signals to their vectors
	// (memoized composition through assigns).
	defs map[string]bitVec
}

// blast converts an expression.
func (b *blaster) blast(e rtl.Expr) (bitVec, error) {
	switch v := e.(type) {
	case *rtl.Num:
		w := v.Width
		if w == 0 {
			w = 64
			for w > 1 && v.Value>>(uint(w)-1)&1 == 0 {
				w--
			}
		}
		out := make(bitVec, w)
		for i := range out {
			out[i] = logic.Const(v.Value>>uint(i)&1 == 1)
		}
		return out, nil

	case *rtl.Ident:
		return b.signal(v.Name)

	case *rtl.Slice:
		base, err := b.signal(v.Base)
		if err != nil {
			return nil, err
		}
		if v.Hi >= len(base) {
			return nil, fmt.Errorf("equiv: slice %s[%d:%d] out of range", v.Base, v.Hi, v.Lo)
		}
		return append(bitVec(nil), base[v.Lo:v.Hi+1]...), nil

	case *rtl.Index:
		idx, ok := v.Idx.(*rtl.Num)
		if !ok {
			return nil, fmt.Errorf("equiv: dynamic index %s not supported combinationally", v)
		}
		base, err := b.signal(v.Base)
		if err != nil {
			return nil, err
		}
		if int(idx.Value) >= len(base) {
			return nil, fmt.Errorf("equiv: index %s out of range", v)
		}
		return bitVec{base[idx.Value]}, nil

	case *rtl.Unary:
		x, err := b.blast(v.X)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "~":
			out := make(bitVec, len(x))
			for i := range x {
				out[i] = logic.Not(x[i])
			}
			return out, nil
		case "!":
			return bitVec{logic.Not(orAll(x))}, nil
		case "redor":
			return bitVec{orAll(x)}, nil
		case "redand":
			terms := make([]logic.Expr, len(x))
			copy(terms, x)
			return bitVec{logic.And(terms...)}, nil
		case "redxor":
			terms := make([]logic.Expr, len(x))
			copy(terms, x)
			return bitVec{logic.Xor(terms...)}, nil
		case "-":
			// Two's complement: ~x + 1.
			inv := make(bitVec, len(x))
			for i := range x {
				inv[i] = logic.Not(x[i])
			}
			one := make(bitVec, len(x))
			one[0] = logic.True
			for i := 1; i < len(one); i++ {
				one[i] = logic.False
			}
			sum, _ := addVec(inv, one)
			return sum, nil
		}
		return nil, fmt.Errorf("equiv: unknown unary %q", v.Op)

	case *rtl.Binary:
		l, err := b.blast(v.L)
		if err != nil {
			return nil, err
		}
		r, err := b.blast(v.R)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "&", "|", "^":
			l, r = padPair(l, r)
			out := make(bitVec, len(l))
			for i := range l {
				switch v.Op {
				case "&":
					out[i] = logic.And(l[i], r[i])
				case "|":
					out[i] = logic.Or(l[i], r[i])
				default:
					out[i] = logic.Xor(l[i], r[i])
				}
			}
			return out, nil
		case "+":
			l, r = padPair(l, r)
			sum, _ := addVec(l, r)
			return sum, nil
		case "-":
			l, r = padPair(l, r)
			// l - r = l + ~r + 1.
			inv := make(bitVec, len(r))
			for i := range r {
				inv[i] = logic.Not(r[i])
			}
			sum, _ := addVecCarry(l, inv, logic.True)
			return sum, nil
		case "==", "!=":
			l, r = padPair(l, r)
			var diffs []logic.Expr
			for i := range l {
				diffs = append(diffs, logic.Xor(l[i], r[i]))
			}
			ne := logic.Or(diffs...)
			if v.Op == "==" {
				return bitVec{logic.Not(ne)}, nil
			}
			return bitVec{ne}, nil
		case "<", "<=", ">", ">=":
			l, r = padPair(l, r)
			lt := lessThan(l, r)
			switch v.Op {
			case "<":
				return bitVec{lt}, nil
			case ">=":
				return bitVec{logic.Not(lt)}, nil
			case ">":
				return bitVec{lessThan(r, l)}, nil
			default:
				return bitVec{logic.Not(lessThan(r, l))}, nil
			}
		case "<<", ">>":
			n, ok := v.R.(*rtl.Num)
			if !ok {
				return nil, fmt.Errorf("equiv: only constant shifts supported, got %s", v)
			}
			k := int(n.Value)
			out := make(bitVec, len(l))
			for i := range out {
				src := i - k
				if v.Op == ">>" {
					src = i + k
				}
				if src >= 0 && src < len(l) {
					out[i] = l[src]
				} else {
					out[i] = logic.False
				}
			}
			return out, nil
		}
		return nil, fmt.Errorf("equiv: unknown operator %q", v.Op)

	case *rtl.Cond:
		c, err := b.blast(v.C)
		if err != nil {
			return nil, err
		}
		cond := orAll(c)
		tv, err := b.blast(v.T)
		if err != nil {
			return nil, err
		}
		fv, err := b.blast(v.F)
		if err != nil {
			return nil, err
		}
		tv, fv = padPair(tv, fv)
		out := make(bitVec, len(tv))
		for i := range tv {
			out[i] = logic.Ite(cond, tv[i], fv[i])
		}
		return out, nil

	case *rtl.Concat:
		var out bitVec
		// Concat lists MSB-first; assemble LSB-first.
		for i := len(v.Parts) - 1; i >= 0; i-- {
			p, err := b.blast(v.Parts[i])
			if err != nil {
				return nil, err
			}
			out = append(out, p...)
		}
		return out, nil

	case *rtl.CamOp:
		return nil, fmt.Errorf("equiv: CAM operations are sequential state; use SeqEquiv")
	}
	return nil, fmt.Errorf("equiv: unknown expression %T", e)
}

// signal resolves a signal to its bit vector: a memoized definition if
// internally assigned, else fresh input variables.
func (b *blaster) signal(name string) (bitVec, error) {
	if v, ok := b.defs[name]; ok {
		return v, nil
	}
	if b.isState != nil && b.isState(name) {
		return nil, fmt.Errorf("equiv: %q is a register; combinational check cannot cross state", name)
	}
	w, ok := b.widthOf(name)
	if !ok {
		return nil, fmt.Errorf("equiv: unknown signal %q", name)
	}
	out := make(bitVec, w)
	for i := range out {
		out[i] = logic.Var(BitVar(name, i))
	}
	return out, nil
}

// orAll reduces a vector to a single "non-zero" bit.
func orAll(v bitVec) logic.Expr {
	terms := make([]logic.Expr, len(v))
	copy(terms, v)
	return logic.Or(terms...)
}

// padPair zero-extends the shorter vector.
func padPair(a, c bitVec) (bitVec, bitVec) {
	for len(a) < len(c) {
		a = append(a, logic.False)
	}
	for len(c) < len(a) {
		c = append(c, logic.False)
	}
	return a, c
}

// addVec is ripple-carry addition, discarding the final carry (masked
// arithmetic, like the simulator).
func addVec(a, c bitVec) (bitVec, logic.Expr) {
	return addVecCarry(a, c, logic.False)
}

// addVecCarry adds with an initial carry.
func addVecCarry(a, c bitVec, carry logic.Expr) (bitVec, logic.Expr) {
	out := make(bitVec, len(a))
	for i := range a {
		out[i] = logic.Xor(a[i], c[i], carry)
		carry = logic.Or(logic.And(a[i], c[i]), logic.And(carry, logic.Xor(a[i], c[i])))
	}
	return out, carry
}

// lessThan builds the unsigned a < b predicate.
func lessThan(a, c bitVec) logic.Expr {
	// From MSB down: lt = (¬a_i & b_i) | (a_i≡b_i) & lt_below.
	lt := logic.Expr(logic.False)
	for i := 0; i < len(a); i++ {
		eq := logic.Not(logic.Xor(a[i], c[i]))
		lt = logic.Or(logic.And(logic.Not(a[i]), c[i]), logic.And(eq, lt))
	}
	return lt
}
