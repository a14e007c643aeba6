// Package rtl implements FCL ("full-custom language"), the toolkit's
// behavioural/RTL hardware description language and its phase-accurate
// simulator.
//
// §4.1 of the paper: "Standard hardware description languages have
// proven to be inadequate for us when describing highly variable ...
// parts of the design. In addition, these standard languages tend to
// require more hierarchical levels than desired. Some of our functional
// units are just difficult to code in standard languages and result in
// highly inefficient run-times, e.g. a 2000 port CAM structure. We have
// developed a hardware language driven by our style of designing
// microprocessors, with programming constructs that make sense for the
// design itself, and which compiles into very efficient code."
//
// FCL therefore provides, besides ordinary wires/registers/memories, a
// native content-addressable-memory primitive (cam) whose match
// operation is evaluated directly rather than through thousands of
// elaborated comparators. The S4 experiment benchmarks the primitive
// against its gate-level expansion.
//
// The language is deliberately small and line-oriented:
//
//	module top(a[32], b[32] -> sum[32], hit)
//	wire t[32]
//	reg acc[32] @phi1
//	mem m 16 32
//	cam tags 64 32
//	assign t = a + b
//	assign sum = t ^ acc
//	assign hit = tags.hit(a)
//	on phi1: acc <= acc + 1
//	on phi1: m[a[3:0]] <= b
//	inst u1 of child(x=t, y=sum)
//	endmodule
//
// Signals are up to 64 bits wide. Simulation is phase-accurate: each
// register belongs to a clock phase; a cycle evaluates combinational
// logic, commits phi1 registers, re-evaluates, commits phi2, matching
// the two-phase methodology of the circuits the RTL shadows.
package rtl

import "fmt"

// Expr is an FCL expression AST node.
type Expr interface {
	exprNode()
	String() string
}

// Num is an integer literal with optional explicit width.
type Num struct {
	Value uint64
	Width int // 0 = unsized
}

// Ident references a signal.
type Ident struct{ Name string }

// Index is a bit-select or memory read: Base[Idx].
type Index struct {
	Base string
	Idx  Expr
}

// Slice is a bit range: Base[Hi:Lo].
type Slice struct {
	Base   string
	Hi, Lo int
}

// Unary is ~x, !x, -x, or a reduction (redor/redand/redxor).
type Unary struct {
	Op string
	X  Expr
}

// Binary is a binary operator application.
type Binary struct {
	Op   string
	L, R Expr
}

// Cond is c ? a : b.
type Cond struct {
	C, T, F Expr
}

// Concat is {a, b, ...} with the first operand most significant.
type Concat struct{ Parts []Expr }

// CamOp is a CAM query: Cam.hit(Key) or Cam.index(Key).
type CamOp struct {
	Cam string
	Op  string // "hit" or "index"
	Key Expr
}

func (*Num) exprNode()    {}
func (*Ident) exprNode()  {}
func (*Index) exprNode()  {}
func (*Slice) exprNode()  {}
func (*Unary) exprNode()  {}
func (*Binary) exprNode() {}
func (*Cond) exprNode()   {}
func (*Concat) exprNode() {}
func (*CamOp) exprNode()  {}

// String implementations render source-like forms for diagnostics.
func (n *Num) String() string    { return fmt.Sprintf("%d", n.Value) }
func (i *Ident) String() string  { return i.Name }
func (i *Index) String() string  { return fmt.Sprintf("%s[%s]", i.Base, i.Idx) }
func (s *Slice) String() string  { return fmt.Sprintf("%s[%d:%d]", s.Base, s.Hi, s.Lo) }
func (u *Unary) String() string  { return u.Op + u.X.String() }
func (b *Binary) String() string { return "(" + b.L.String() + b.Op + b.R.String() + ")" }
func (c *Cond) String() string {
	return "(" + c.C.String() + "?" + c.T.String() + ":" + c.F.String() + ")"
}
func (c *Concat) String() string {
	s := "{"
	for i, p := range c.Parts {
		if i > 0 {
			s += ","
		}
		s += p.String()
	}
	return s + "}"
}
func (c *CamOp) String() string { return fmt.Sprintf("%s.%s(%s)", c.Cam, c.Op, c.Key) }

// SignalKind distinguishes declaration kinds.
type SignalKind int

// Signal kinds.
const (
	KindWire SignalKind = iota
	KindReg
	KindInput
	KindOutput
)

// SignalDecl declares a wire, reg or port.
type SignalDecl struct {
	Name  string
	Width int
	Kind  SignalKind
	// Phase is the clock phase of a reg ("phi1"/"phi2"/...).
	Phase string
	// Init is the register reset value.
	Init uint64
}

// MemDecl declares a memory of Depth words × Width bits.
type MemDecl struct {
	Name  string
	Depth int
	Width int
}

// CamDecl declares a content-addressable memory: Depth entries of Width
// bits, with per-entry valid bits.
type CamDecl struct {
	Name  string
	Depth int
	Width int
}

// Assign is a combinational assignment. If IndexExpr is nil the target
// is the whole signal.
type Assign struct {
	Target string
	Expr   Expr
	Line   int
}

// ClockedStmt is a register/memory/CAM update on a phase:
// target <= expr, target[idx] <= expr.
type ClockedStmt struct {
	Phase  string
	Target string
	Idx    Expr // nil for plain registers
	Expr   Expr
	// Cond guards the update (conditional clocking! §3); nil = always.
	Cond Expr
	Line int
}

// Instance instantiates a child module with named port bindings.
type Instance struct {
	Name     string
	Module   string
	Bindings map[string]string // child port → parent signal
	Line     int
}

// Module is a parsed FCL module.
type Module struct {
	Name      string
	Ports     []SignalDecl // inputs then outputs, declaration order
	Signals   []SignalDecl // wires and regs
	Mems      []MemDecl
	Cams      []CamDecl
	Assigns   []Assign
	Clocked   []ClockedStmt
	Instances []Instance
}

// Program is a set of modules; Top names the root.
type Program struct {
	Modules map[string]*Module
	Top     string
}

// Outputs returns the module's output declarations.
func (m *Module) Outputs() []SignalDecl {
	var out []SignalDecl
	for _, p := range m.Ports {
		if p.Kind == KindOutput {
			out = append(out, p)
		}
	}
	return out
}
