package rtl

import (
	"fmt"
	"sort"
	"strings"
)

// Design is an elaborated (instance-flattened, checked, levelized)
// program ready for simulation.
type Design struct {
	// Top is the root module name.
	Top string
	// Signals lists every signal with its final hierarchical name.
	Signals []SignalDecl
	// Mems and Cams are the state arrays.
	Mems []MemDecl
	Cams []CamDecl
	// Assigns are in evaluation (topological) order.
	Assigns []Assign
	// Clocked are the phase-triggered updates.
	Clocked []ClockedStmt
	// Phases is the sorted list of clock phases in use.
	Phases []string

	index map[string]int // signal name → Signals index
	mems  map[string]int
	cams  map[string]int
}

// SignalIndex returns the signal's index, or -1.
func (d *Design) SignalIndex(name string) int {
	if i, ok := d.index[name]; ok {
		return i
	}
	return -1
}

// Elaborate flattens the program's instance tree, bounds its memory and
// CAM words, checks semantic rules and levelizes the combinational
// assigns.
func Elaborate(prog *Program) (*Design, error) {
	top, ok := prog.Modules[prog.Top]
	if !ok {
		return nil, fmt.Errorf("fcl: unknown top module %q", prog.Top)
	}
	d := &Design{
		Top:   prog.Top,
		index: make(map[string]int),
		mems:  make(map[string]int),
		cams:  make(map[string]int),
	}
	if err := d.inline(prog, top, "", nil, map[string]bool{prog.Top: true}); err != nil {
		return nil, err
	}
	// inline copies a child's arrays into every instance, so nesting
	// multiplies them; bound the whole design as the parser bounds one
	// declaration, before a simulator allocates every word.
	words := 0
	for _, m := range d.Mems {
		words += m.Depth
	}
	for _, c := range d.Cams {
		words += c.Depth
	}
	if words > maxDepth {
		return nil, fmt.Errorf("fcl: design %s holds %d memory and CAM words, over the limit of %d", prog.Top, words, maxDepth)
	}
	if err := d.checkRefs(); err != nil {
		return nil, err
	}
	if err := d.levelize(); err != nil {
		return nil, err
	}
	d.collectPhases()
	return d, nil
}

// addSignal registers a signal, rejecting duplicates.
func (d *Design) addSignal(s SignalDecl) error {
	if _, dup := d.index[s.Name]; dup {
		return fmt.Errorf("fcl: duplicate signal %q", s.Name)
	}
	d.index[s.Name] = len(d.Signals)
	d.Signals = append(d.Signals, s)
	return nil
}

// inline copies module m into the design under prefix, with port
// substitutions subst (child port name → parent signal name).
func (d *Design) inline(prog *Program, m *Module, prefix string, subst map[string]string, active map[string]bool) error {
	pfx := func(name string) string {
		if s, ok := subst[name]; ok {
			return s
		}
		if prefix == "" {
			return name
		}
		return prefix + "/" + name
	}
	// Ports: at the top level they are real signals; in children they
	// are aliases resolved through subst, and any *unbound* child port
	// becomes a fresh hierarchical signal.
	for _, p := range m.Ports {
		if _, bound := subst[p.Name]; bound && prefix != "" {
			continue
		}
		s := p
		s.Name = pfx(p.Name)
		if prefix != "" {
			s.Kind = KindWire // child ports are plain nets once inlined
		}
		if err := d.addSignal(s); err != nil {
			return err
		}
	}
	for _, sd := range m.Signals {
		s := sd
		s.Name = pfx(sd.Name)
		if err := d.addSignal(s); err != nil {
			return err
		}
	}
	for _, mem := range m.Mems {
		name := pfx(mem.Name)
		if _, dup := d.mems[name]; dup {
			return fmt.Errorf("fcl: duplicate mem %q", name)
		}
		d.mems[name] = len(d.Mems)
		d.Mems = append(d.Mems, MemDecl{name, mem.Depth, mem.Width})
	}
	for _, cam := range m.Cams {
		name := pfx(cam.Name)
		if _, dup := d.cams[name]; dup {
			return fmt.Errorf("fcl: duplicate cam %q", name)
		}
		d.cams[name] = len(d.Cams)
		d.Cams = append(d.Cams, CamDecl{name, cam.Depth, cam.Width})
	}
	for _, a := range m.Assigns {
		d.Assigns = append(d.Assigns, Assign{
			Target: pfx(a.Target),
			Expr:   renameExpr(a.Expr, pfx),
			Line:   a.Line,
		})
	}
	for _, cstmt := range m.Clocked {
		ns := cstmt
		ns.Target = pfx(cstmt.Target)
		ns.Expr = renameExpr(cstmt.Expr, pfx)
		if cstmt.Idx != nil {
			ns.Idx = renameExpr(cstmt.Idx, pfx)
		}
		if cstmt.Cond != nil {
			ns.Cond = renameExpr(cstmt.Cond, pfx)
		}
		d.Clocked = append(d.Clocked, ns)
	}
	for _, inst := range m.Instances {
		child, ok := prog.Modules[inst.Module]
		if !ok {
			return fmt.Errorf("fcl: line %d: unknown module %q", inst.Line, inst.Module)
		}
		if active[inst.Module] {
			return fmt.Errorf("fcl: line %d: recursive instantiation of %q", inst.Line, inst.Module)
		}
		childPrefix := pfx(inst.Name)
		childSubst := make(map[string]string, len(inst.Bindings))
		ports := make(map[string]bool, len(child.Ports))
		for _, p := range child.Ports {
			ports[p.Name] = true
		}
		for port, sig := range inst.Bindings {
			if !ports[port] {
				return fmt.Errorf("fcl: line %d: module %q has no port %q", inst.Line, inst.Module, port)
			}
			childSubst[port] = pfx(sig)
		}
		active[inst.Module] = true
		if err := d.inline(prog, child, childPrefix, childSubst, active); err != nil {
			return err
		}
		delete(active, inst.Module)
	}
	return nil
}

// renameExpr rewrites identifier references through the substitution.
func renameExpr(e Expr, pfx func(string) string) Expr {
	switch v := e.(type) {
	case *Num:
		return v
	case *Ident:
		return &Ident{pfx(v.Name)}
	case *Index:
		return &Index{Base: pfx(v.Base), Idx: renameExpr(v.Idx, pfx)}
	case *Slice:
		return &Slice{Base: pfx(v.Base), Hi: v.Hi, Lo: v.Lo}
	case *Unary:
		return &Unary{Op: v.Op, X: renameExpr(v.X, pfx)}
	case *Binary:
		return &Binary{Op: v.Op, L: renameExpr(v.L, pfx), R: renameExpr(v.R, pfx)}
	case *Cond:
		return &Cond{renameExpr(v.C, pfx), renameExpr(v.T, pfx), renameExpr(v.F, pfx)}
	case *Concat:
		parts := make([]Expr, len(v.Parts))
		for i, p := range v.Parts {
			parts[i] = renameExpr(p, pfx)
		}
		return &Concat{parts}
	case *CamOp:
		return &CamOp{Cam: pfx(v.Cam), Op: v.Op, Key: renameExpr(v.Key, pfx)}
	}
	panic(fmt.Sprintf("fcl: unknown expr %T", e))
}

// checkRefs verifies that every reference resolves, drivers are unique,
// and clocked targets are consistent with their declarations.
func (d *Design) checkRefs() error {
	// Signal targets of assigns.
	driver := make(map[string]int)
	for _, a := range d.Assigns {
		i, ok := d.index[a.Target]
		if !ok {
			return fmt.Errorf("fcl: line %d: assign to undeclared signal %q", a.Line, a.Target)
		}
		s := d.Signals[i]
		if s.Kind == KindReg {
			return fmt.Errorf("fcl: line %d: reg %q cannot be combinationally assigned", a.Line, a.Target)
		}
		if s.Kind == KindInput {
			return fmt.Errorf("fcl: line %d: input %q cannot be assigned", a.Line, a.Target)
		}
		if prev, dup := driver[a.Target]; dup {
			return fmt.Errorf("fcl: line %d: %q already driven at line %d", a.Line, a.Target, prev)
		}
		driver[a.Target] = a.Line
		if err := d.checkExpr(a.Expr, a.Line); err != nil {
			return err
		}
	}
	for _, cstmt := range d.Clocked {
		if cstmt.Idx != nil {
			// Memory or CAM write.
			_, isMem := d.mems[cstmt.Target]
			_, isCam := d.cams[cstmt.Target]
			if !isMem && !isCam {
				return fmt.Errorf("fcl: line %d: indexed write to %q which is not a mem or cam", cstmt.Line, cstmt.Target)
			}
			if err := d.checkExpr(cstmt.Idx, cstmt.Line); err != nil {
				return err
			}
		} else {
			i, ok := d.index[cstmt.Target]
			if !ok {
				return fmt.Errorf("fcl: line %d: clocked write to undeclared %q", cstmt.Line, cstmt.Target)
			}
			s := d.Signals[i]
			if s.Kind != KindReg {
				return fmt.Errorf("fcl: line %d: clocked write target %q is not a reg", cstmt.Line, cstmt.Target)
			}
			if s.Phase != cstmt.Phase {
				return fmt.Errorf("fcl: line %d: reg %q is @%s but written on %s", cstmt.Line, cstmt.Target, s.Phase, cstmt.Phase)
			}
		}
		if err := d.checkExpr(cstmt.Expr, cstmt.Line); err != nil {
			return err
		}
		if cstmt.Cond != nil {
			if err := d.checkExpr(cstmt.Cond, cstmt.Line); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkExpr verifies references and slice bounds.
func (d *Design) checkExpr(e Expr, line int) error {
	switch v := e.(type) {
	case *Num:
		return nil
	case *Ident:
		if _, ok := d.index[v.Name]; !ok {
			return fmt.Errorf("fcl: line %d: undeclared signal %q", line, v.Name)
		}
		return nil
	case *Index:
		if _, isMem := d.mems[v.Base]; !isMem {
			if _, isSig := d.index[v.Base]; !isSig {
				return fmt.Errorf("fcl: line %d: undeclared %q", line, v.Base)
			}
		}
		return d.checkExpr(v.Idx, line)
	case *Slice:
		i, ok := d.index[v.Base]
		if !ok {
			return fmt.Errorf("fcl: line %d: undeclared signal %q", line, v.Base)
		}
		if v.Hi >= d.Signals[i].Width {
			return fmt.Errorf("fcl: line %d: slice %s[%d:%d] exceeds width %d", line, v.Base, v.Hi, v.Lo, d.Signals[i].Width)
		}
		return nil
	case *Unary:
		return d.checkExpr(v.X, line)
	case *Binary:
		if err := d.checkExpr(v.L, line); err != nil {
			return err
		}
		return d.checkExpr(v.R, line)
	case *Cond:
		for _, x := range []Expr{v.C, v.T, v.F} {
			if err := d.checkExpr(x, line); err != nil {
				return err
			}
		}
		return nil
	case *Concat:
		for _, p := range v.Parts {
			if err := d.checkExpr(p, line); err != nil {
				return err
			}
		}
		return nil
	case *CamOp:
		if _, ok := d.cams[v.Cam]; !ok {
			return fmt.Errorf("fcl: line %d: undeclared cam %q", line, v.Cam)
		}
		return d.checkExpr(v.Key, line)
	}
	return fmt.Errorf("fcl: line %d: unknown expression %T", line, e)
}

// levelize topologically sorts the assigns; a combinational cycle is an
// error (state must go through regs).
func (d *Design) levelize() error {
	byTarget := make(map[string]int, len(d.Assigns))
	for i, a := range d.Assigns {
		byTarget[a.Target] = i
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(d.Assigns))
	var order []Assign
	var visit func(i int) error
	visit = func(i int) error {
		switch color[i] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("fcl: combinational cycle through %q (line %d)", d.Assigns[i].Target, d.Assigns[i].Line)
		}
		color[i] = grey
		for _, dep := range exprDeps(d.Assigns[i].Expr) {
			if j, ok := byTarget[dep]; ok {
				if err := visit(j); err != nil {
					return err
				}
			}
		}
		color[i] = black
		order = append(order, d.Assigns[i])
		return nil
	}
	for i := range d.Assigns {
		if err := visit(i); err != nil {
			return err
		}
	}
	d.Assigns = order
	return nil
}

// exprDeps returns the signal names an expression reads combinationally
// (memory/CAM contents are state, but their index/key expressions are
// combinational dependencies).
func exprDeps(e Expr) []string {
	var out []string
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *Num:
		case *Ident:
			out = append(out, v.Name)
		case *Index:
			out = append(out, v.Base) // harmless if it is a mem (no assign targets mems)
			walk(v.Idx)
		case *Slice:
			out = append(out, v.Base)
		case *Unary:
			walk(v.X)
		case *Binary:
			walk(v.L)
			walk(v.R)
		case *Cond:
			walk(v.C)
			walk(v.T)
			walk(v.F)
		case *Concat:
			for _, p := range v.Parts {
				walk(p)
			}
		case *CamOp:
			walk(v.Key)
		}
	}
	walk(e)
	return out
}

// collectPhases gathers the sorted distinct phases.
func (d *Design) collectPhases() {
	set := make(map[string]bool)
	for _, s := range d.Signals {
		if s.Phase != "" {
			set[s.Phase] = true
		}
	}
	for _, c := range d.Clocked {
		set[c.Phase] = true
	}
	for p := range set {
		d.Phases = append(d.Phases, p)
	}
	sort.Strings(d.Phases)
}

// Stats summarizes the elaborated design.
func (d *Design) Stats() string {
	regs, wires := 0, 0
	for _, s := range d.Signals {
		if s.Kind == KindReg {
			regs++
		} else {
			wires++
		}
	}
	return fmt.Sprintf("%s: %d signals (%d regs), %d mems, %d cams, %d assigns, %d clocked stmts, phases %s",
		d.Top, len(d.Signals), regs, len(d.Mems), len(d.Cams), len(d.Assigns), len(d.Clocked),
		strings.Join(d.Phases, ","))
}
