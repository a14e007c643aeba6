package rtl

import (
	"fmt"
	"math/bits"

	"repro/internal/obs"
)

// Lanes is the packed simulation width: one PackedSim carries this many
// independent machines, one per bit position of every plane word.
const Lanes = 64

const allLanes = ^uint64(0)

// PackedSim is the 64-lane bit-parallel twin of Sim. State is stored
// bit-plane transposed: a w-bit signal occupies w uint64 planes, where
// plane b holds bit b of the signal across all 64 lanes. Combinational
// settling and clocked phases then run as word-wide AND/OR/XOR over
// planes — one settle advances 64 independent stimulus vectors — with
// per-lane gather/scatter fallbacks only for the inherently
// lane-divergent operations (memory addressing, CAM search, variable
// shifts). Lane l of a PackedSim is defined to behave exactly like a
// scalar Sim fed lane l's stimulus; the differential tests pin that.
type PackedSim struct {
	design *Design
	off    []int      // signal i's planes live at vals[off[i] : off[i]+Width]
	vals   []uint64   // all signal planes, flat
	mems   [][]uint64 // lane-major: mems[mi][lane*depth+addr]
	cams   []*packedCamState

	assignFns  []packedAssign
	phaseStmts [][]packedClocked

	cycles uint64
}

// packedCamState is the CAM primitive's per-lane storage.
type packedCamState struct {
	decl    CamDecl
	entries []uint64 // lane-major
	valid   []bool
}

type packedAssign struct {
	off, width int
	fn         packedFn
	// buf is non-nil when the expression's natural width differs from
	// the target width (scalar path masks/zero-extends at assignment).
	buf []uint64
}

type packedClocked struct {
	sigIndex, memIndex, camIndex int
	off, width                   int
	cond, rhs, idx               packedFn
	condBuf, valBuf, idxBuf      []uint64
	en                           uint64
}

// packedFn fills out (exactly the expression's natural width in planes)
// with the expression's value across all lanes.
type packedFn func(p *PackedSim, out []uint64)

// NewPackedSim elaborates (if needed) and compiles a program for
// 64-lane evaluation.
func NewPackedSim(prog *Program) (*PackedSim, error) {
	d, err := Elaborate(prog)
	if err != nil {
		return nil, err
	}
	return NewPackedSimFromDesign(d)
}

// NewPackedSimFromDesign compiles an already-elaborated design. The
// design is read-only here, so many PackedSims (e.g. parallel lane
// blocks) can share one Design.
func NewPackedSimFromDesign(d *Design) (*PackedSim, error) {
	p := &PackedSim{design: d, off: make([]int, len(d.Signals))}
	total := 0
	for i, sd := range d.Signals {
		p.off[i] = total
		total += sd.Width
	}
	p.vals = make([]uint64, total)
	for i, sd := range d.Signals {
		if sd.Kind == KindReg {
			broadcast(p.vals[p.off[i]:p.off[i]+sd.Width], sd.Init)
		}
	}
	for _, m := range d.Mems {
		p.mems = append(p.mems, make([]uint64, Lanes*m.Depth))
	}
	for _, c := range d.Cams {
		p.cams = append(p.cams, &packedCamState{
			decl:    c,
			entries: make([]uint64, Lanes*c.Depth),
			valid:   make([]bool, Lanes*c.Depth),
		})
	}
	for _, a := range d.Assigns {
		fn, w, err := p.compile(a.Expr, a.Line)
		if err != nil {
			return nil, err
		}
		ti := d.index[a.Target]
		pa := packedAssign{off: p.off[ti], width: d.Signals[ti].Width, fn: fn}
		if w != pa.width {
			pa.buf = make([]uint64, w)
		}
		p.assignFns = append(p.assignFns, pa)
	}
	clockedBy := map[string][]packedClocked{}
	for _, cs := range d.Clocked {
		cc := packedClocked{sigIndex: -1, memIndex: -1, camIndex: -1}
		rhs, rw, err := p.compile(cs.Expr, cs.Line)
		if err != nil {
			return nil, err
		}
		cc.rhs = rhs
		cc.valBuf = make([]uint64, rw)
		if cs.Cond != nil {
			cond, cw, err := p.compile(cs.Cond, cs.Line)
			if err != nil {
				return nil, err
			}
			cc.cond = cond
			cc.condBuf = make([]uint64, cw)
		}
		if cs.Idx != nil {
			idx, iw, err := p.compile(cs.Idx, cs.Line)
			if err != nil {
				return nil, err
			}
			cc.idx = idx
			cc.idxBuf = make([]uint64, iw)
			if mi, ok := d.mems[cs.Target]; ok {
				cc.memIndex = mi
				cc.width = d.Mems[mi].Width
			} else if ci, ok := d.cams[cs.Target]; ok {
				cc.camIndex = ci
				cc.width = d.Cams[ci].Width
			}
		} else {
			ti := d.index[cs.Target]
			cc.sigIndex = ti
			cc.off = p.off[ti]
			cc.width = d.Signals[ti].Width
		}
		clockedBy[cs.Phase] = append(clockedBy[cs.Phase], cc)
	}
	for _, ph := range d.Phases {
		p.phaseStmts = append(p.phaseStmts, clockedBy[ph])
	}
	p.settle()
	return p, nil
}

// broadcast sets every lane of a plane group to the same scalar value.
func broadcast(planes []uint64, v uint64) {
	for b := range planes {
		if v&(1<<uint(b)) != 0 {
			planes[b] = allLanes
		} else {
			planes[b] = 0
		}
	}
}

// gatherLane reassembles one lane's scalar value from planes.
func gatherLane(planes []uint64, lane int) uint64 {
	var v uint64
	bit := uint64(1) << uint(lane)
	for b, pl := range planes {
		if pl&bit != 0 {
			v |= 1 << uint(b)
		}
	}
	return v
}

// scatterLane writes one lane's scalar value into planes.
func scatterLane(planes []uint64, lane int, v uint64) {
	bit := uint64(1) << uint(lane)
	for b := range planes {
		if v&(1<<uint(b)) != 0 {
			planes[b] |= bit
		} else {
			planes[b] &^= bit
		}
	}
}

// Design returns the elaborated design.
func (p *PackedSim) Design() *Design { return p.design }

// Cycles returns the number of completed Cycle calls (each carries all
// 64 lanes one cycle forward).
func (p *PackedSim) Cycles() uint64 { return p.cycles }

// LaneCycles returns cycles × lanes: the simulated machine-cycle count
// this sim has actually covered.
func (p *PackedSim) LaneCycles() uint64 { return p.cycles * Lanes }

// SetPlanes drives a signal from bit planes (planes[b] = bit b across
// lanes) and re-settles. len(planes) must equal the signal width.
func (p *PackedSim) SetPlanes(name string, planes []uint64) error {
	i := p.design.SignalIndex(name)
	if i < 0 {
		return fmt.Errorf("fcl: unknown signal %q", name)
	}
	w := p.design.Signals[i].Width
	if len(planes) != w {
		return fmt.Errorf("fcl: signal %q is %d bits, got %d planes", name, w, len(planes))
	}
	copy(p.vals[p.off[i]:p.off[i]+w], planes)
	p.settle()
	return nil
}

// SetAll broadcasts one value to every lane of a signal and re-settles.
func (p *PackedSim) SetAll(name string, v uint64) error {
	i := p.design.SignalIndex(name)
	if i < 0 {
		return fmt.Errorf("fcl: unknown signal %q", name)
	}
	w := p.design.Signals[i].Width
	broadcast(p.vals[p.off[i]:p.off[i]+w], v&widthMask(w))
	p.settle()
	return nil
}

// GetPlanes copies a signal's planes into dst (sized to the signal
// width) and returns it; dst may be nil.
func (p *PackedSim) GetPlanes(name string, dst []uint64) []uint64 {
	i := p.design.SignalIndex(name)
	if i < 0 {
		return nil
	}
	w := p.design.Signals[i].Width
	if len(dst) < w {
		dst = make([]uint64, w)
	}
	copy(dst[:w], p.vals[p.off[i]:p.off[i]+w])
	return dst[:w]
}

// settle evaluates all combinational assigns once in topological order.
func (p *PackedSim) settle() {
	for i := range p.assignFns {
		a := &p.assignFns[i]
		dst := p.vals[a.off : a.off+a.width]
		if a.buf == nil {
			a.fn(p, dst)
			continue
		}
		// Natural width != target width: scalar masks/zero-extends at
		// the assignment; plane form truncates or zero-fills.
		a.fn(p, a.buf)
		n := copy(dst, a.buf)
		for b := n; b < a.width; b++ {
			dst[b] = 0
		}
	}
}

// Phase executes one clock phase across all lanes: evaluate every
// clocked statement against the pre-edge state (per-lane enable masks),
// commit simultaneously, then re-settle.
func (p *PackedSim) Phase(phase string) {
	for pi, ph := range p.design.Phases {
		if ph == phase {
			p.runPhase(p.phaseStmts[pi])
			return
		}
	}
}

func (p *PackedSim) runPhase(stmts []packedClocked) {
	for i := range stmts {
		cc := &stmts[i]
		en := allLanes
		if cc.cond != nil {
			cc.cond(p, cc.condBuf)
			en = 0
			for _, pl := range cc.condBuf {
				en |= pl
			}
		}
		cc.en = en
		if en == 0 {
			continue
		}
		cc.rhs(p, cc.valBuf)
		if cc.idx != nil {
			cc.idx(p, cc.idxBuf)
		}
	}
	for i := range stmts {
		cc := &stmts[i]
		en := cc.en
		if en == 0 {
			continue
		}
		switch {
		case cc.sigIndex >= 0:
			planes := p.vals[cc.off : cc.off+cc.width]
			for b := range planes {
				var vb uint64
				if b < len(cc.valBuf) {
					vb = cc.valBuf[b]
				}
				planes[b] = (vb & en) | (planes[b] &^ en)
			}
		case cc.memIndex >= 0:
			mem := p.mems[cc.memIndex]
			depth := uint64(p.design.Mems[cc.memIndex].Depth)
			vw := cc.width
			if len(cc.valBuf) < vw {
				vw = len(cc.valBuf)
			}
			for m := en; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				a := gatherLane(cc.idxBuf, l)
				if a >= depth {
					continue
				}
				mem[uint64(l)*depth+a] = gatherLane(cc.valBuf[:vw], l)
			}
		case cc.camIndex >= 0:
			cam := p.cams[cc.camIndex]
			depth := uint64(cam.decl.Depth)
			vw := cc.width
			if len(cc.valBuf) < vw {
				vw = len(cc.valBuf)
			}
			for m := en; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				a := gatherLane(cc.idxBuf, l)
				if a >= depth {
					continue
				}
				cam.entries[uint64(l)*depth+a] = gatherLane(cc.valBuf[:vw], l)
				cam.valid[uint64(l)*depth+a] = true
			}
		}
	}
	p.settle()
}

// Cycle runs all phases once in sorted order, advancing every lane one
// machine cycle.
func (p *PackedSim) Cycle() {
	for _, stmts := range p.phaseStmts {
		p.runPhase(stmts)
	}
	p.cycles++
}

// compile lowers an expression to a plane evaluator. Width reporting
// mirrors Sim.compile exactly — the per-lane value a packedFn produces
// must match the scalar evalFn bit for bit.
func (p *PackedSim) compile(e Expr, line int) (packedFn, int, error) {
	d := p.design
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
		planes := make([]uint64, w)
		broadcast(planes, val)
		return func(_ *PackedSim, out []uint64) { copy(out, planes) }, w, nil

	case *Ident:
		i := d.SignalIndex(v.Name)
		if i < 0 {
			return nil, 0, fmt.Errorf("fcl: line %d: undeclared signal %q", line, v.Name)
		}
		off, w := p.off[i], d.Signals[i].Width
		return func(p *PackedSim, out []uint64) { copy(out, p.vals[off:off+w]) }, w, nil

	case *Index:
		idxFn, iw, err := p.compile(v.Idx, line)
		if err != nil {
			return nil, 0, err
		}
		idxBuf := make([]uint64, iw)
		if mi, ok := d.mems[v.Base]; ok {
			depth := uint64(d.Mems[mi].Depth)
			w := d.Mems[mi].Width
			return func(p *PackedSim, out []uint64) {
				idxFn(p, idxBuf)
				for b := range out {
					out[b] = 0
				}
				mem := p.mems[mi]
				for l := 0; l < Lanes; l++ {
					a := gatherLane(idxBuf, l)
					if a >= depth {
						continue
					}
					bit := uint64(1) << uint(l)
					mv := mem[uint64(l)*depth+a]
					for b := range out {
						if mv&(1<<uint(b)) != 0 {
							out[b] |= bit
						}
					}
				}
			}, w, nil
		}
		i := d.SignalIndex(v.Base)
		if i < 0 {
			return nil, 0, fmt.Errorf("fcl: line %d: undeclared %q", line, v.Base)
		}
		off, sw := p.off[i], d.Signals[i].Width
		if n, isNum := v.Idx.(*Num); isNum {
			// Constant bit select: one plane copy, no gather.
			bi := int(n.Value & 63)
			return func(p *PackedSim, out []uint64) {
				if bi < sw {
					out[0] = p.vals[off+bi]
				} else {
					out[0] = 0
				}
			}, 1, nil
		}
		return func(p *PackedSim, out []uint64) {
			idxFn(p, idxBuf)
			out[0] = 0
			sig := p.vals[off : off+sw]
			for l := 0; l < Lanes; l++ {
				bi := int(gatherLane(idxBuf, l) & 63)
				if bi < sw && sig[bi]&(1<<uint(l)) != 0 {
					out[0] |= 1 << uint(l)
				}
			}
		}, 1, nil

	case *Slice:
		i := d.SignalIndex(v.Base)
		if i < 0 {
			return nil, 0, fmt.Errorf("fcl: line %d: undeclared %q", line, v.Base)
		}
		off, sw := p.off[i], d.Signals[i].Width
		lo, w := v.Lo, v.Hi-v.Lo+1
		return func(p *PackedSim, out []uint64) {
			for b := 0; b < w; b++ {
				if lo+b < sw {
					out[b] = p.vals[off+lo+b]
				} else {
					out[b] = 0
				}
			}
		}, w, nil

	case *Unary:
		xf, xw, err := p.compile(v.X, line)
		if err != nil {
			return nil, 0, err
		}
		xa := make([]uint64, xw)
		switch v.Op {
		case "~":
			return func(p *PackedSim, out []uint64) {
				xf(p, xa)
				for b := range out {
					out[b] = ^xa[b]
				}
			}, xw, nil
		case "!":
			return func(p *PackedSim, out []uint64) {
				xf(p, xa)
				var m uint64
				for _, pl := range xa {
					m |= pl
				}
				out[0] = ^m
			}, 1, nil
		case "-":
			return func(p *PackedSim, out []uint64) {
				xf(p, xa)
				c := allLanes // two's complement: ^x + 1, carry-in 1 in every lane
				for b := 0; b < xw; b++ {
					nb := ^xa[b]
					out[b] = nb ^ c
					c = nb & c
				}
			}, xw, nil
		case "redor":
			return func(p *PackedSim, out []uint64) {
				xf(p, xa)
				var m uint64
				for _, pl := range xa {
					m |= pl
				}
				out[0] = m
			}, 1, nil
		case "redand":
			return func(p *PackedSim, out []uint64) {
				xf(p, xa)
				m := allLanes
				for _, pl := range xa {
					m &= pl
				}
				out[0] = m
			}, 1, nil
		case "redxor":
			return func(p *PackedSim, out []uint64) {
				xf(p, xa)
				var m uint64
				for _, pl := range xa {
					m ^= pl
				}
				out[0] = m
			}, 1, nil
		}
		return nil, 0, fmt.Errorf("fcl: line %d: unknown unary %q", line, v.Op)

	case *Binary:
		lf, lw, err := p.compile(v.L, line)
		if err != nil {
			return nil, 0, err
		}
		rf, rw, err := p.compile(v.R, line)
		if err != nil {
			return nil, 0, err
		}
		w := lw
		if rw > w {
			w = rw
		}
		// Operand scratch at the joint width; upper planes stay zero
		// (allocated zeroed, never written) = zero extension.
		la := make([]uint64, w)
		rb := make([]uint64, w)
		ev := func(p *PackedSim) {
			lf(p, la[:lw])
			rf(p, rb[:rw])
		}
		switch v.Op {
		case "|":
			return func(p *PackedSim, out []uint64) {
				ev(p)
				for b := 0; b < w; b++ {
					out[b] = la[b] | rb[b]
				}
			}, w, nil
		case "^":
			return func(p *PackedSim, out []uint64) {
				ev(p)
				for b := 0; b < w; b++ {
					out[b] = la[b] ^ rb[b]
				}
			}, w, nil
		case "&":
			return func(p *PackedSim, out []uint64) {
				ev(p)
				for b := 0; b < w; b++ {
					out[b] = la[b] & rb[b]
				}
			}, w, nil
		case "+":
			return func(p *PackedSim, out []uint64) {
				ev(p)
				var c uint64 // 64 ripple-carry adders, one per lane
				for b := 0; b < w; b++ {
					ab, bb := la[b], rb[b]
					out[b] = ab ^ bb ^ c
					c = (ab & bb) | (c & (ab ^ bb))
				}
			}, w, nil
		case "-":
			return func(p *PackedSim, out []uint64) {
				ev(p)
				c := allLanes // a + ^b + 1
				for b := 0; b < w; b++ {
					ab, bb := la[b], ^rb[b]
					out[b] = ab ^ bb ^ c
					c = (ab & bb) | (c & (ab ^ bb))
				}
			}, w, nil
		case "<<":
			lm := widthMask(lw)
			return func(p *PackedSim, out []uint64) {
				ev(p)
				for b := 0; b < lw; b++ {
					out[b] = 0
				}
				for l := 0; l < Lanes; l++ {
					sh := gatherLane(rb[:rw], l) & 63
					scatterLane(out[:lw], l, (gatherLane(la[:lw], l)<<sh)&lm)
				}
			}, lw, nil
		case ">>":
			return func(p *PackedSim, out []uint64) {
				ev(p)
				for b := 0; b < lw; b++ {
					out[b] = 0
				}
				for l := 0; l < Lanes; l++ {
					sh := gatherLane(rb[:rw], l) & 63
					scatterLane(out[:lw], l, gatherLane(la[:lw], l)>>sh)
				}
			}, lw, nil
		case "==":
			return func(p *PackedSim, out []uint64) {
				ev(p)
				m := allLanes
				for b := 0; b < w; b++ {
					m &= ^(la[b] ^ rb[b])
				}
				out[0] = m
			}, 1, nil
		case "!=":
			return func(p *PackedSim, out []uint64) {
				ev(p)
				m := allLanes
				for b := 0; b < w; b++ {
					m &= ^(la[b] ^ rb[b])
				}
				out[0] = ^m
			}, 1, nil
		case "<":
			return func(p *PackedSim, out []uint64) {
				ev(p)
				out[0] = borrowOut(la, rb, w)
			}, 1, nil
		case "<=":
			return func(p *PackedSim, out []uint64) {
				ev(p)
				out[0] = ^borrowOut(rb, la, w) // a<=b ⇔ !(b<a)
			}, 1, nil
		case ">":
			return func(p *PackedSim, out []uint64) {
				ev(p)
				out[0] = borrowOut(rb, la, w)
			}, 1, nil
		case ">=":
			return func(p *PackedSim, out []uint64) {
				ev(p)
				out[0] = ^borrowOut(la, rb, w)
			}, 1, nil
		}
		return nil, 0, fmt.Errorf("fcl: line %d: unknown operator %q", line, v.Op)

	case *Cond:
		cf, cw, err := p.compile(v.C, line)
		if err != nil {
			return nil, 0, err
		}
		tf, tw, err := p.compile(v.T, line)
		if err != nil {
			return nil, 0, err
		}
		ff, fw, err := p.compile(v.F, line)
		if err != nil {
			return nil, 0, err
		}
		w := tw
		if fw > w {
			w = fw
		}
		ca := make([]uint64, cw)
		ta := make([]uint64, w)
		fa := make([]uint64, w)
		return func(p *PackedSim, out []uint64) {
			cf(p, ca)
			var m uint64 // per-lane "condition nonzero" select mask
			for _, pl := range ca {
				m |= pl
			}
			tf(p, ta[:tw])
			ff(p, fa[:fw])
			for b := 0; b < w; b++ {
				out[b] = (ta[b] & m) | (fa[b] &^ m)
			}
		}, w, nil

	case *Concat:
		type part struct {
			fn  packedFn
			off int // bit offset from LSB in the result
			w   int
		}
		var parts []part
		total := 0
		for _, pe := range v.Parts {
			pf, pw, err := p.compile(pe, line)
			if err != nil {
				return nil, 0, err
			}
			parts = append(parts, part{fn: pf, w: pw})
			total += pw
		}
		if total > 64 {
			return nil, 0, fmt.Errorf("fcl: line %d: concat width %d exceeds 64", line, total)
		}
		off := total
		for i := range parts {
			off -= parts[i].w
			parts[i].off = off
		}
		return func(p *PackedSim, out []uint64) {
			for _, pt := range parts {
				pt.fn(p, out[pt.off:pt.off+pt.w])
			}
		}, total, nil

	case *CamOp:
		ci, ok := d.cams[v.Cam]
		if !ok {
			return nil, 0, fmt.Errorf("fcl: line %d: undeclared cam %q", line, v.Cam)
		}
		kf, kw, err := p.compile(v.Key, line)
		if err != nil {
			return nil, 0, err
		}
		ka := make([]uint64, kw)
		camW := d.Cams[ci].Width
		depth := d.Cams[ci].Depth
		mask := widthMask(camW)
		gw := kw
		if camW < gw {
			gw = camW // scalar masks the key to the CAM width
		}
		switch v.Op {
		case "hit":
			return func(p *PackedSim, out []uint64) {
				kf(p, ka)
				out[0] = 0
				cam := p.cams[ci]
				for l := 0; l < Lanes; l++ {
					key := gatherLane(ka[:gw], l) & mask
					base := l * depth
					for e := 0; e < depth; e++ {
						if cam.valid[base+e] && cam.entries[base+e] == key {
							out[0] |= 1 << uint(l)
							break
						}
					}
				}
			}, 1, nil
		case "index":
			w := bits.Len(uint(depth - 1))
			if w == 0 {
				w = 1
			}
			return func(p *PackedSim, out []uint64) {
				kf(p, ka)
				for b := range out {
					out[b] = 0
				}
				cam := p.cams[ci]
				for l := 0; l < Lanes; l++ {
					key := gatherLane(ka[:gw], l) & mask
					base := l * depth
					for e := 0; e < depth; e++ {
						if cam.valid[base+e] && cam.entries[base+e] == key {
							scatterLane(out, l, uint64(e))
							break
						}
					}
				}
			}, w, nil
		}
		return nil, 0, fmt.Errorf("fcl: line %d: unknown cam op %q", line, v.Op)
	}
	return nil, 0, fmt.Errorf("fcl: line %d: unknown expression %T", line, e)
}

// borrowOut computes the per-lane borrow of a-b over w planes: bit l of
// the result is 1 iff a < b in lane l (unsigned).
func borrowOut(a, b []uint64, w int) uint64 {
	var br uint64
	for i := 0; i < w; i++ {
		ab, bb := a[i], b[i]
		br = (^ab & bb) | (^(ab ^ bb) & br)
	}
	return br
}

// PackedStimulus drives 64 independent pseudo-random input sequences
// into a packed simulation — §4.1: "Simulation requires stimulus
// patterns, which are either manually generated or pseudo-random
// sequences." Every bit is a fair coin, one raw RNG word per plane. The
// obs.RNG stream is pinned, so (seed, cycle, lane) replays forever.
type PackedStimulus struct {
	sim    *PackedSim
	rng    *obs.RNG
	inputs []packedStimInput
}

type packedStimInput struct {
	name  string
	width int
}

// NewPackedStimulus prepares a generator over the named inputs.
func NewPackedStimulus(sim *PackedSim, seed int64, inputs ...string) (*PackedStimulus, error) {
	st := &PackedStimulus{sim: sim, rng: obs.NewRNG(seed)}
	for _, in := range inputs {
		i := sim.design.SignalIndex(in)
		if i < 0 {
			return nil, fmt.Errorf("fcl: stimulus input %q not found", in)
		}
		st.inputs = append(st.inputs, packedStimInput{in, sim.design.Signals[i].Width})
	}
	return st, nil
}

// Vector generates one random 64-lane assignment per input and applies
// it without advancing the clock, settling once at the end.
func (s *PackedStimulus) Vector() {
	for _, in := range s.inputs {
		i := s.sim.design.SignalIndex(in.name)
		planes := s.sim.vals[s.sim.off[i] : s.sim.off[i]+in.width]
		for b := range planes {
			planes[b] = s.rng.Uint64()
		}
	}
	s.sim.settle()
}

// Step drives one random 64-lane vector and advances one cycle.
func (s *PackedStimulus) Step() {
	s.Vector()
	s.sim.Cycle()
}
