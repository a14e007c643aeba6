package rtl

import (
	"fmt"
	"math/bits"

	"repro/internal/obs"
)

// Sim is a phase-accurate simulator for an elaborated design. Signal
// values are uint64 words masked to declared widths; memories and CAMs
// are state arrays. "Compiles into very efficient code" (§4.1): every
// expression is compiled once into a closure tree over the value array,
// so steady-state simulation does no AST walking, map lookups or
// allocation.
type Sim struct {
	design *Design
	vals   []uint64
	mems   [][]uint64
	cams   []*camState

	assignFns []compiledAssign
	clockedBy map[string][]compiledClocked
	// phaseStmts aligns the clocked statements with design.Phases so
	// Cycle avoids the map lookup per phase; staged is the reusable
	// commit buffer (Phase allocated one per call before — two allocs
	// per cycle on the hot path).
	phaseStmts [][]compiledClocked
	staged     []pendingWrite

	cycles   uint64
	activity *activityState

	// obs, when set, receives rtl.cycles counters and per-phase timing
	// gauges; phaseGauges pre-joins the gauge names so the traced cycle
	// path does no string building.
	obs         *obs.Collector
	phaseGauges []string
}

// pendingWrite stages one clocked update between the evaluate and
// commit halves of a phase.
type pendingWrite struct {
	cc  *compiledClocked
	idx uint64
	val uint64
	en  bool
}

// camState is the native CAM primitive's storage.
type camState struct {
	decl    CamDecl
	entries []uint64
	valid   []bool
}

type compiledAssign struct {
	target int
	mask   uint64
	fn     evalFn
}

type compiledClocked struct {
	// For reg targets: sigIndex ≥ 0. For mem/cam: memIndex/camIndex ≥ 0.
	sigIndex, memIndex, camIndex int
	mask                         uint64
	idx, cond, rhs               evalFn
}

// evalFn computes an expression value against the current state.
type evalFn func(s *Sim) uint64

// NewSim elaborates (if needed) and compiles a program.
func NewSim(prog *Program) (*Sim, error) {
	d, err := Elaborate(prog)
	if err != nil {
		return nil, err
	}
	return NewSimFromDesign(d)
}

// NewSimFromDesign compiles an already-elaborated design.
func NewSimFromDesign(d *Design) (*Sim, error) {
	s := &Sim{
		design:    d,
		vals:      make([]uint64, len(d.Signals)),
		clockedBy: make(map[string][]compiledClocked),
	}
	for _, m := range d.Mems {
		s.mems = append(s.mems, make([]uint64, m.Depth))
	}
	for _, c := range d.Cams {
		s.cams = append(s.cams, &camState{
			decl:    c,
			entries: make([]uint64, c.Depth),
			valid:   make([]bool, c.Depth),
		})
	}
	for i, sd := range d.Signals {
		if sd.Kind == KindReg {
			s.vals[i] = sd.Init & widthMask(sd.Width)
		}
	}
	for _, a := range d.Assigns {
		fn, _, err := s.compile(a.Expr, a.Line)
		if err != nil {
			return nil, err
		}
		ti := d.index[a.Target]
		s.assignFns = append(s.assignFns, compiledAssign{
			target: ti,
			mask:   widthMask(d.Signals[ti].Width),
			fn:     fn,
		})
	}
	for _, cs := range d.Clocked {
		cc := compiledClocked{sigIndex: -1, memIndex: -1, camIndex: -1}
		rhs, _, err := s.compile(cs.Expr, cs.Line)
		if err != nil {
			return nil, err
		}
		cc.rhs = rhs
		if cs.Cond != nil {
			cond, _, err := s.compile(cs.Cond, cs.Line)
			if err != nil {
				return nil, err
			}
			cc.cond = cond
		}
		if cs.Idx != nil {
			idx, _, err := s.compile(cs.Idx, cs.Line)
			if err != nil {
				return nil, err
			}
			cc.idx = idx
			if mi, ok := d.mems[cs.Target]; ok {
				cc.memIndex = mi
				cc.mask = widthMask(d.Mems[mi].Width)
			} else if ci, ok := d.cams[cs.Target]; ok {
				cc.camIndex = ci
				cc.mask = widthMask(d.Cams[ci].Width)
			}
		} else {
			ti := d.index[cs.Target]
			cc.sigIndex = ti
			cc.mask = widthMask(d.Signals[ti].Width)
		}
		s.clockedBy[cs.Phase] = append(s.clockedBy[cs.Phase], cc)
	}
	maxStmts := 0
	for _, p := range d.Phases {
		stmts := s.clockedBy[p]
		s.phaseStmts = append(s.phaseStmts, stmts)
		if len(stmts) > maxStmts {
			maxStmts = len(stmts)
		}
	}
	s.staged = make([]pendingWrite, maxStmts)
	s.settle()
	return s, nil
}

// widthMask returns the value mask for a width (1..64).
func widthMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(w)) - 1
}

// Design returns the elaborated design.
func (s *Sim) Design() *Design { return s.design }

// Cycles returns the number of completed Cycle calls.
func (s *Sim) Cycles() uint64 { return s.cycles }

// Set drives an input (or any signal, for test setup), masking to its
// width, and re-settles combinational logic.
func (s *Sim) Set(name string, v uint64) error {
	i := s.design.SignalIndex(name)
	if i < 0 {
		return fmt.Errorf("fcl: unknown signal %q", name)
	}
	s.vals[i] = v & widthMask(s.design.Signals[i].Width)
	s.settle()
	return nil
}

// Get returns a signal's current value (0 for unknown names).
func (s *Sim) Get(name string) uint64 {
	i := s.design.SignalIndex(name)
	if i < 0 {
		return 0
	}
	return s.vals[i]
}

// GetMem reads a memory word directly (test/debug access).
func (s *Sim) GetMem(name string, addr int) (uint64, error) {
	mi, ok := s.design.mems[name]
	if !ok {
		return 0, fmt.Errorf("fcl: unknown mem %q", name)
	}
	if addr < 0 || addr >= len(s.mems[mi]) {
		return 0, fmt.Errorf("fcl: mem %q address %d out of range", name, addr)
	}
	return s.mems[mi][addr], nil
}

// LoadMem initializes memory contents (e.g. a program image).
func (s *Sim) LoadMem(name string, words []uint64) error {
	mi, ok := s.design.mems[name]
	if !ok {
		return fmt.Errorf("fcl: unknown mem %q", name)
	}
	if len(words) > len(s.mems[mi]) {
		return fmt.Errorf("fcl: mem %q holds %d words, got %d", name, len(s.mems[mi]), len(words))
	}
	mask := widthMask(s.design.Mems[mi].Width)
	for i, w := range words {
		s.mems[mi][i] = w & mask
	}
	s.settle()
	return nil
}

// settle evaluates all combinational assigns once in topological order.
func (s *Sim) settle() {
	for i := range s.assignFns {
		a := &s.assignFns[i]
		s.vals[a.target] = a.fn(s) & a.mask
	}
}

// Phase executes one clock phase: evaluate all of the phase's clocked
// statements against the pre-edge state, commit them simultaneously,
// then re-settle combinational logic.
func (s *Sim) Phase(phase string) {
	s.runPhase(s.clockedBy[phase])
}

// runPhase is the allocation-free phase kernel: staged writes go
// through the sim's reusable buffer.
func (s *Sim) runPhase(stmts []compiledClocked) {
	if len(stmts) > len(s.staged) {
		s.staged = make([]pendingWrite, len(stmts))
	}
	staged := s.staged[:len(stmts)]
	for i := range stmts {
		cc := &stmts[i]
		en := cc.cond == nil || cc.cond(s) != 0
		if s.activity != nil {
			s.activity.possib++
			if en {
				s.activity.enabled++
			}
		}
		p := pendingWrite{cc: cc, en: en}
		if en {
			p.val = cc.rhs(s) & cc.mask
			if cc.idx != nil {
				p.idx = cc.idx(s)
			}
		}
		staged[i] = p
	}
	for _, p := range staged {
		if !p.en {
			continue
		}
		switch {
		case p.cc.sigIndex >= 0:
			s.vals[p.cc.sigIndex] = p.val
		case p.cc.memIndex >= 0:
			mem := s.mems[p.cc.memIndex]
			if int(p.idx) < len(mem) {
				mem[p.idx] = p.val
			}
		case p.cc.camIndex >= 0:
			cam := s.cams[p.cc.camIndex]
			if int(p.idx) < len(cam.entries) {
				cam.entries[p.idx] = p.val
				cam.valid[p.idx] = true
			}
		}
	}
	s.settle()
}

// Cycle runs all phases once in sorted order (phi1 before phi2) and
// counts a completed cycle.
func (s *Sim) Cycle() {
	if s.obs != nil {
		s.cycleTraced()
		return
	}
	for _, stmts := range s.phaseStmts {
		s.runPhase(stmts)
	}
	s.cycles++
	s.recordCycleActivity()
}

// cycleTraced is Cycle with telemetry: each phase's wall clock
// accumulates into its rtl.phase.<name>_ms gauge and completed cycles
// into the rtl.cycles counter. Kept off Cycle's untraced path so the
// "telemetry disabled" hot loop has no clock calls.
func (s *Sim) cycleTraced() {
	for pi, stmts := range s.phaseStmts {
		t0 := obs.Now()
		s.runPhase(stmts)
		s.obs.AddGauge(s.phaseGauges[pi], float64(obs.Now().Sub(t0).Microseconds())/1000)
	}
	s.cycles++
	s.recordCycleActivity()
	s.obs.Add("rtl.cycles", 1)
}

// SetObserver attaches a telemetry collector (nil detaches): completed
// cycles count into rtl.cycles, and each clock phase's cumulative wall
// clock into an rtl.phase.<name>_ms gauge.
func (s *Sim) SetObserver(c *obs.Collector) {
	s.obs = c
	s.phaseGauges = s.phaseGauges[:0]
	for _, p := range s.design.Phases {
		s.phaseGauges = append(s.phaseGauges, "rtl.phase."+p+"_ms")
	}
}

// Run executes n cycles.
func (s *Sim) Run(n int) {
	for i := 0; i < n; i++ {
		s.Cycle()
	}
}

// compile turns an expression into an evalFn; it returns the result
// width for masking decisions in parent nodes.
func (s *Sim) compile(e Expr, line int) (evalFn, int, error) {
	d := s.design
	switch v := e.(type) {
	case *Num:
		val := v.Value
		w := v.Width
		if w == 0 {
			w = bits.Len64(val)
			if w == 0 {
				w = 1
			}
		}
		return func(*Sim) uint64 { return val }, w, nil

	case *Ident:
		i := d.SignalIndex(v.Name)
		if i < 0 {
			return nil, 0, fmt.Errorf("fcl: line %d: undeclared signal %q", line, v.Name)
		}
		return func(s *Sim) uint64 { return s.vals[i] }, d.Signals[i].Width, nil

	case *Index:
		idxFn, _, err := s.compile(v.Idx, line)
		if err != nil {
			return nil, 0, err
		}
		if mi, ok := d.mems[v.Base]; ok {
			depth := uint64(d.Mems[mi].Depth)
			return func(s *Sim) uint64 {
				a := idxFn(s)
				if a >= depth {
					return 0
				}
				return s.mems[mi][a]
			}, d.Mems[mi].Width, nil
		}
		i := d.SignalIndex(v.Base)
		if i < 0 {
			return nil, 0, fmt.Errorf("fcl: line %d: undeclared %q", line, v.Base)
		}
		return func(s *Sim) uint64 { return (s.vals[i] >> (idxFn(s) & 63)) & 1 }, 1, nil

	case *Slice:
		i := d.SignalIndex(v.Base)
		if i < 0 {
			return nil, 0, fmt.Errorf("fcl: line %d: undeclared %q", line, v.Base)
		}
		lo := uint(v.Lo)
		mask := widthMask(v.Hi - v.Lo + 1)
		return func(s *Sim) uint64 { return (s.vals[i] >> lo) & mask }, v.Hi - v.Lo + 1, nil

	case *Unary:
		xf, xw, err := s.compile(v.X, line)
		if err != nil {
			return nil, 0, err
		}
		mask := widthMask(xw)
		switch v.Op {
		case "~":
			return func(s *Sim) uint64 { return ^xf(s) & mask }, xw, nil
		case "!":
			return func(s *Sim) uint64 {
				if xf(s) == 0 {
					return 1
				}
				return 0
			}, 1, nil
		case "-":
			return func(s *Sim) uint64 { return (-xf(s)) & mask }, xw, nil
		case "redor":
			return func(s *Sim) uint64 {
				if xf(s) != 0 {
					return 1
				}
				return 0
			}, 1, nil
		case "redand":
			return func(s *Sim) uint64 {
				if xf(s) == mask {
					return 1
				}
				return 0
			}, 1, nil
		case "redxor":
			return func(s *Sim) uint64 { return uint64(bits.OnesCount64(xf(s)) & 1) }, 1, nil
		}
		return nil, 0, fmt.Errorf("fcl: line %d: unknown unary %q", line, v.Op)

	case *Binary:
		lf, lw, err := s.compile(v.L, line)
		if err != nil {
			return nil, 0, err
		}
		rf, rw, err := s.compile(v.R, line)
		if err != nil {
			return nil, 0, err
		}
		w := lw
		if rw > w {
			w = rw
		}
		mask := widthMask(w)
		b1 := func(cond func(a, b uint64) bool) evalFn {
			return func(s *Sim) uint64 {
				if cond(lf(s), rf(s)) {
					return 1
				}
				return 0
			}
		}
		switch v.Op {
		case "|":
			return func(s *Sim) uint64 { return lf(s) | rf(s) }, w, nil
		case "^":
			return func(s *Sim) uint64 { return lf(s) ^ rf(s) }, w, nil
		case "&":
			return func(s *Sim) uint64 { return lf(s) & rf(s) }, w, nil
		case "+":
			return func(s *Sim) uint64 { return (lf(s) + rf(s)) & mask }, w, nil
		case "-":
			return func(s *Sim) uint64 { return (lf(s) - rf(s)) & mask }, w, nil
		case "<<":
			lm := widthMask(lw)
			return func(s *Sim) uint64 { return (lf(s) << (rf(s) & 63)) & lm }, lw, nil
		case ">>":
			return func(s *Sim) uint64 { return lf(s) >> (rf(s) & 63) }, lw, nil
		case "==":
			return b1(func(a, b uint64) bool { return a == b }), 1, nil
		case "!=":
			return b1(func(a, b uint64) bool { return a != b }), 1, nil
		case "<":
			return b1(func(a, b uint64) bool { return a < b }), 1, nil
		case "<=":
			return b1(func(a, b uint64) bool { return a <= b }), 1, nil
		case ">":
			return b1(func(a, b uint64) bool { return a > b }), 1, nil
		case ">=":
			return b1(func(a, b uint64) bool { return a >= b }), 1, nil
		}
		return nil, 0, fmt.Errorf("fcl: line %d: unknown operator %q", line, v.Op)

	case *Cond:
		cf, _, err := s.compile(v.C, line)
		if err != nil {
			return nil, 0, err
		}
		tf, tw, err := s.compile(v.T, line)
		if err != nil {
			return nil, 0, err
		}
		ff, fw, err := s.compile(v.F, line)
		if err != nil {
			return nil, 0, err
		}
		w := tw
		if fw > w {
			w = fw
		}
		return func(s *Sim) uint64 {
			if cf(s) != 0 {
				return tf(s)
			}
			return ff(s)
		}, w, nil

	case *Concat:
		type part struct {
			fn evalFn
			w  uint
		}
		var parts []part
		total := 0
		for _, p := range v.Parts {
			pf, pw, err := s.compile(p, line)
			if err != nil {
				return nil, 0, err
			}
			parts = append(parts, part{pf, uint(pw)})
			total += pw
		}
		if total > 64 {
			return nil, 0, fmt.Errorf("fcl: line %d: concat width %d exceeds 64", line, total)
		}
		return func(s *Sim) uint64 {
			var out uint64
			for _, p := range parts {
				out = (out << p.w) | (p.fn(s) & widthMask(int(p.w)))
			}
			return out
		}, total, nil

	case *CamOp:
		ci, ok := d.cams[v.Cam]
		if !ok {
			return nil, 0, fmt.Errorf("fcl: line %d: undeclared cam %q", line, v.Cam)
		}
		kf, _, err := s.compile(v.Key, line)
		if err != nil {
			return nil, 0, err
		}
		mask := widthMask(d.Cams[ci].Width)
		switch v.Op {
		case "hit":
			return func(s *Sim) uint64 {
				key := kf(s) & mask
				cam := s.cams[ci]
				for i, e := range cam.entries {
					if cam.valid[i] && e == key {
						return 1
					}
				}
				return 0
			}, 1, nil
		case "index":
			w := bits.Len(uint(d.Cams[ci].Depth - 1))
			if w == 0 {
				w = 1
			}
			return func(s *Sim) uint64 {
				key := kf(s) & mask
				cam := s.cams[ci]
				for i, e := range cam.entries {
					if cam.valid[i] && e == key {
						return uint64(i)
					}
				}
				return 0
			}, w, nil
		}
		return nil, 0, fmt.Errorf("fcl: line %d: unknown cam op %q", line, v.Op)
	}
	return nil, 0, fmt.Errorf("fcl: line %d: unknown expression %T", line, e)
}

// State is an opaque snapshot of a simulation's architectural state
// (registers, memories, CAM contents) used by sequential equivalence
// checking and checkpoint/restore.
type State struct {
	vals []uint64
	mems [][]uint64
	cams [][]uint64
	vld  [][]bool
}

// Snapshot captures the current state.
func (s *Sim) Snapshot() *State {
	st := &State{vals: append([]uint64(nil), s.vals...)}
	for _, m := range s.mems {
		st.mems = append(st.mems, append([]uint64(nil), m...))
	}
	for _, c := range s.cams {
		st.cams = append(st.cams, append([]uint64(nil), c.entries...))
		st.vld = append(st.vld, append([]bool(nil), c.valid...))
	}
	return st
}

// Restore reinstates a snapshot taken from the same design.
func (s *Sim) Restore(st *State) error {
	if len(st.vals) != len(s.vals) || len(st.mems) != len(s.mems) || len(st.cams) != len(s.cams) {
		return fmt.Errorf("fcl: snapshot shape mismatch")
	}
	copy(s.vals, st.vals)
	for i := range s.mems {
		copy(s.mems[i], st.mems[i])
	}
	for i := range s.cams {
		copy(s.cams[i].entries, st.cams[i])
		copy(s.cams[i].valid, st.vld[i])
	}
	s.settle()
	return nil
}

// StateKey returns a compact, comparable fingerprint of the architectural
// state (register values only — memories hash in) for visited-set use.
func (s *Sim) StateKey() string {
	var b []byte
	for i, sd := range s.design.Signals {
		if sd.Kind == KindReg {
			b = appendU64(b, s.vals[i])
		}
	}
	for _, m := range s.mems {
		for _, w := range m {
			b = appendU64(b, w)
		}
	}
	for _, c := range s.cams {
		for i, e := range c.entries {
			b = appendU64(b, e)
			if c.valid[i] {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	return string(b)
}

// appendU64 appends a little-endian uint64.
func appendU64(b []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}
