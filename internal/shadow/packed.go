package shadow

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/rtl"
	"repro/internal/switchsim"
)

// PackedMismatch records one lane's shadow comparison failure. Block is
// -1 for single-shadow runs and the lane block index for RunBlocks.
type PackedMismatch struct {
	Block   int
	Lane    int
	Cycle   uint64
	Phase   string
	Node    string // circuit node
	Signal  string // RTL reference
	RTL     uint64
	Circuit switchsim.Value
}

// String formats the mismatch for logs.
func (m PackedMismatch) String() string {
	blk := ""
	if m.Block >= 0 {
		blk = fmt.Sprintf("block %d ", m.Block)
	}
	return fmt.Sprintf("%slane %d cycle %d %s: circuit %s=%v, rtl %s=%d",
		blk, m.Lane, m.Cycle, m.Phase, m.Node, m.Circuit, m.Signal, m.RTL)
}

// PackedShadow couples a 64-lane RTL simulation with a 64-lane circuit
// block: every settle carries 64 independent stimulus vectors through
// both sides, and every phase comparison checks all 64 lanes at once
// with three word ops. Mismatch records carry the offending lane.
type PackedShadow struct {
	RTL *rtl.PackedSim
	Ckt *switchsim.PackedSim
	b   Binding

	// Mismatches accumulates comparison failures (bounded), ordered by
	// (cycle, phase order, node, lane) — byte-deterministic.
	Mismatches []PackedMismatch
	// Compared counts lane comparisons performed (64 per bound output
	// per phase).
	Compared int
	// MaxMismatches bounds the log (default 100).
	MaxMismatches int

	ins, outs []boundRef // sorted by circuit node
	planeBuf  []uint64
	blockIdx  int
}

// boundRef is one input or output binding resolved against the RTL
// design: the circuit node, the reference as written, and the signal
// and bit it selects.
type boundRef struct {
	node, ref, sig string
	bit            int
}

// NewPacked validates the binding and returns a coupled 64-lane shadow.
// Every input and output reference must name an RTL signal, and a bit
// select must lie inside the signal's width.
func NewPacked(rtlSim *rtl.PackedSim, ckt *switchsim.PackedSim, b Binding) (*PackedShadow, error) {
	d := rtlSim.Design()
	resolve := func(kind string, m map[string]string) ([]boundRef, error) {
		refs := make([]boundRef, 0, len(m))
		for node, ref := range m {
			if ckt.Circuit().FindNode(node) < 0 {
				return nil, fmt.Errorf("shadow: %s binding to unknown circuit node %q", kind, node)
			}
			name, bit, err := splitRef(ref)
			if err != nil {
				return nil, err
			}
			i := d.SignalIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("shadow: unknown RTL signal %q", name)
			}
			if w := d.Signals[i].Width; bit >= w {
				return nil, fmt.Errorf("shadow: %q selects bit %d of %d-bit signal %q", ref, bit, w, name)
			}
			refs = append(refs, boundRef{node: node, ref: ref, sig: name, bit: bit})
		}
		sort.Slice(refs, func(i, j int) bool { return refs[i].node < refs[j].node })
		return refs, nil
	}
	ins, err := resolve("input", b.Inputs)
	if err != nil {
		return nil, err
	}
	outs, err := resolve("output", b.Outputs)
	if err != nil {
		return nil, err
	}
	phases := make(map[string]bool)
	for _, p := range d.Phases {
		phases[p] = true
	}
	for node, phase := range b.Clocks {
		if ckt.Circuit().FindNode(node) < 0 {
			return nil, fmt.Errorf("shadow: clock binding to unknown circuit node %q", node)
		}
		if !phases[phase] {
			return nil, fmt.Errorf("shadow: clock %q bound to unknown phase %q", node, phase)
		}
	}
	return &PackedShadow{RTL: rtlSim, Ckt: ckt, b: b, ins: ins, outs: outs, MaxMismatches: 100, blockIdx: -1}, nil
}

// rtlPlane reads one bound RTL bit across all 64 lanes as a word.
func (s *PackedShadow) rtlPlane(r boundRef) uint64 {
	s.planeBuf = s.RTL.GetPlanes(r.sig, s.planeBuf)
	return s.planeBuf[r.bit]
}

// driveInputs copies the RTL's current lane planes onto the circuit's
// bound inputs: one plane word drives 64 circuit lanes.
func (s *PackedShadow) driveInputs() {
	for _, r := range s.ins {
		pl := s.rtlPlane(r)
		s.Ckt.SetQuietLanes(r.node, pl, ^pl)
	}
}

// setClocks drives the circuit clocks (same value in every lane).
func (s *PackedShadow) setClocks(active string) {
	for node, phase := range s.b.Clocks {
		s.Ckt.SetQuietAll(node, switchsim.Bool(phase == active))
	}
}

// compare checks all bound outputs across all lanes after a phase: a
// lane agrees when the circuit resolved to exactly the RTL's bit value
// (X and floating never match). Every lane comparison is counted; bad
// lanes are recorded ascending until the log holds MaxMismatches.
func (s *PackedShadow) compare(phase string) {
	for _, o := range s.outs {
		want := s.rtlPlane(o)
		hi, lo := s.Ckt.GetLanes(o.node)
		s.Compared += switchsim.Lanes
		ok := (hi &^ lo & want) | (lo &^ hi &^ want)
		for bad := ^ok; bad != 0 && len(s.Mismatches) < s.MaxMismatches; bad &= bad - 1 {
			lane := bits.TrailingZeros64(bad)
			s.Mismatches = append(s.Mismatches, PackedMismatch{
				Block:   s.blockIdx,
				Lane:    lane,
				Cycle:   s.RTL.Cycles(),
				Phase:   phase,
				Node:    o.node,
				Signal:  o.ref,
				RTL:     (want >> uint(lane)) & 1,
				Circuit: s.Ckt.GetLane(o.node, lane),
			})
		}
	}
}

// Phase advances both sides through one clock phase and compares all 64
// lanes. The circuit first sees the new input values with all clocks
// low — the precharge/setup window dynamic logic requires — then the
// phase clock rises (evaluate/transparent) and the outputs are compared
// against the RTL after its phase executes.
func (s *PackedShadow) Phase(phase string) {
	s.setClocks("")
	s.driveInputs()
	s.Ckt.Settle()
	s.setClocks(phase)
	s.Ckt.Settle()
	s.RTL.Phase(phase)
	s.compare(phase)
	s.setClocks("")
	s.Ckt.Settle()
}

// Cycle advances one full clock cycle through all RTL phases.
func (s *PackedShadow) Cycle() {
	for _, p := range s.RTL.Design().Phases {
		s.Phase(p)
	}
}

// Report summarizes the run.
func (s *PackedShadow) Report() string {
	if len(s.Mismatches) == 0 {
		return fmt.Sprintf("shadow: %d lane comparisons, no mismatches", s.Compared)
	}
	out := fmt.Sprintf("shadow: %d lane comparisons, %d mismatches:\n", s.Compared, len(s.Mismatches))
	for _, m := range s.Mismatches {
		out += "  " + m.String() + "\n"
	}
	return out
}

// RandomRun drives 64 independent pseudo-random vectors per cycle on
// the given RTL inputs for n cycles, shadowing throughout.
func (s *PackedShadow) RandomRun(n int, seed int64, inputs ...string) (bool, error) {
	stim, err := rtl.NewPackedStimulus(s.RTL, seed, inputs...)
	if err != nil {
		return false, err
	}
	for i := 0; i < n; i++ {
		stim.Vector()
		s.Cycle()
	}
	return len(s.Mismatches) == 0, nil
}

// BlockRunConfig describes a block-parallel packed shadow run: Blocks
// independent 64-lane shadow pairs, each seeded Seed+block.
type BlockRunConfig struct {
	Blocks  int
	Cycles  int
	Workers int // <=0 means runtime.GOMAXPROCS(0)
	Seed    int64
	Inputs  []string
}

// BlockReport is one block's shadow outcome.
type BlockReport struct {
	Block      int
	Compared   int
	LaneCycles uint64
	Mismatches []PackedMismatch
}

// RunBlocks runs a block-parallel packed shadow sweep: block b builds
// its own RTL+circuit pair over the shared (read-only) design and
// netlist, seeds its stimulus with Seed+b, and shadows Cycles cycles of
// 64 lanes, one job per block on par's worker pool. Every block's work
// is a pure function of (design, circuit, binding, config, block index),
// so reports — including each mismatch's block/lane coordinates — are
// byte-identical at any worker count, and the returned slice is always
// in block order.
func RunBlocks(d *rtl.Design, ckt *netlist.Circuit, b Binding, cfg BlockRunConfig) ([]BlockReport, error) {
	if cfg.Blocks <= 0 {
		return nil, fmt.Errorf("shadow: RunBlocks needs at least one block")
	}
	reports := make([]BlockReport, cfg.Blocks)
	errs := make([]error, cfg.Blocks)
	par.Do(cfg.Blocks, par.Workers(cfg.Workers, cfg.Blocks), func(blk int) {
		reports[blk], errs[blk] = runShadowBlock(d, ckt, b, cfg, blk)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}

func runShadowBlock(d *rtl.Design, ckt *netlist.Circuit, b Binding, cfg BlockRunConfig, blk int) (BlockReport, error) {
	rtlSim, err := rtl.NewPackedSimFromDesign(d)
	if err != nil {
		return BlockReport{}, err
	}
	cktSim, err := switchsim.NewPacked(ckt)
	if err != nil {
		return BlockReport{}, err
	}
	sh, err := NewPacked(rtlSim, cktSim, b)
	if err != nil {
		return BlockReport{}, err
	}
	sh.blockIdx = blk
	if _, err := sh.RandomRun(cfg.Cycles, cfg.Seed+int64(blk), cfg.Inputs...); err != nil {
		return BlockReport{}, err
	}
	return BlockReport{
		Block:      blk,
		Compared:   sh.Compared,
		LaneCycles: rtlSim.LaneCycles(),
		Mismatches: sh.Mismatches,
	}, nil
}
