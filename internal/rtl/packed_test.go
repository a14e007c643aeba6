package rtl_test

// Differential lane-vs-scalar equivalence for the bit-plane packed RTL
// engine: lane l of a PackedSim must track a scalar Sim fed lane l's
// stimulus exactly — every signal, every memory word, every CAM entry,
// every cycle. The scalar closure-tree simulator is the oracle.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/designs"
	"repro/internal/obs"
	"repro/internal/rtl"
)

// rtlDiffCorpus: every RTL design generator in the repo, with the
// inputs its stimulus should hammer.
func rtlDiffCorpus() map[string]struct {
	src    string
	inputs []string
	cycles int
} {
	return map[string]struct {
		src    string
		inputs []string
		cycles int
	}{
		"pipeline":        {designs.PipelineRTL(), []string{"run"}, 40},
		"pipeline_always": {designs.PipelineRTLAlwaysClocked(), []string{"run"}, 40},
		"adder16":         {designs.AdderRTL(16), []string{"a", "b", "cin"}, 60},
		"adder32":         {designs.AdderRTL(32), []string{"a", "b", "cin"}, 60},
		"cam_native":      {designs.CamNativeRTL(8), []string{"we", "waddr", "wdata", "key"}, 80},
		"cam_expanded":    {designs.CamExpandedRTL(8), []string{"we", "waddr", "wdata", "key"}, 80},
		"mod5_counter":    {designs.Mod5CounterRTL(), []string{"tick"}, 50},
		"mod5_ring":       {designs.Mod5RingRTL(), []string{"tick"}, 50},
	}
}

// buildPair compiles one packed sim and 64 scalar sims of the same
// design.
func buildPair(t *testing.T, src string) (*rtl.PackedSim, []*rtl.Sim) {
	t.Helper()
	prog, err := rtl.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := rtl.NewPackedSim(prog)
	if err != nil {
		t.Fatal(err)
	}
	scalars := make([]*rtl.Sim, rtl.Lanes)
	for i := range scalars {
		s, err := rtl.NewSim(prog)
		if err != nil {
			t.Fatal(err)
		}
		scalars[i] = s
	}
	return ps, scalars
}

// compareRTL checks every signal in every lane, plus memory and CAM
// visible state.
func compareRTL(t *testing.T, label string, ps *rtl.PackedSim, scalars []*rtl.Sim) {
	t.Helper()
	d := ps.Design()
	for _, sd := range d.Signals {
		for lane, s := range scalars {
			if got, want := ps.GetLane(sd.Name, lane), s.Get(sd.Name); got != want {
				t.Fatalf("%s: signal %s lane %d: packed %#x, scalar %#x", label, sd.Name, lane, got, want)
			}
		}
	}
	for _, m := range d.Mems {
		for addr := 0; addr < m.Depth; addr++ {
			for lane, s := range scalars {
				got, err := ps.GetMem(m.Name, lane, addr)
				if err != nil {
					t.Fatal(err)
				}
				want, err := s.GetMem(m.Name, addr)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: mem %s[%d] lane %d: packed %#x, scalar %#x", label, m.Name, addr, lane, got, want)
				}
			}
		}
	}
}

// driveRandom sets input in to seeded random planes on the packed sim
// and each scalar sim to its lane's bits.
func driveRandom(t *testing.T, ps *rtl.PackedSim, scalars []*rtl.Sim, in string, width int, rng *obs.RNG) {
	t.Helper()
	planes := make([]uint64, width)
	for b := range planes {
		planes[b] = rng.Uint64()
	}
	if err := ps.SetPlanes(in, planes); err != nil {
		t.Fatal(err)
	}
	for lane, s := range scalars {
		var v uint64
		for b, pl := range planes {
			if pl&(1<<uint(lane)) != 0 {
				v |= 1 << uint(b)
			}
		}
		if err := s.Set(in, v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRTLPackedLaneEquivalence(t *testing.T) {
	for name, tc := range rtlDiffCorpus() {
		name, tc := name, tc
		t.Run(name, func(t *testing.T) {
			ps, scalars := buildPair(t, tc.src)
			d := ps.Design()
			cycles := tc.cycles
			if testing.Short() {
				cycles /= 4
			}
			rng := obs.NewRNG(int64(len(name)) * 31)
			widths := map[string]int{}
			for _, in := range tc.inputs {
				si := d.SignalIndex(in)
				if si < 0 {
					t.Fatalf("input %q not in design", in)
				}
				widths[in] = d.Signals[si].Width
			}
			for cyc := 0; cyc < cycles; cyc++ {
				for _, in := range tc.inputs {
					driveRandom(t, ps, scalars, in, widths[in], rng)
				}
				ps.Cycle()
				for _, s := range scalars {
					s.Cycle()
				}
				compareRTL(t, fmt.Sprintf("%s cycle %d", name, cyc), ps, scalars)
			}
		})
	}
}

// FuzzFCLLanes holds the FCL parser and the two RTL engines to each
// other on generated programs: ParseString must not panic on any input,
// and for every program that elaborates, lanes 0–3 of a PackedSim
// driven by seeded random planes on every input must match four scalar
// Sims fed those lanes' bits, on every signal and memory word, every
// cycle. The seeds are examples/fcl and rtlDiffCorpus.
func FuzzFCLLanes(f *testing.F) {
	decks, err := filepath.Glob("../../examples/fcl/*.fcl")
	if err != nil || len(decks) == 0 {
		f.Fatalf("no example FCL decks (err %v)", err)
	}
	for _, path := range decks {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), int64(1))
	}
	for _, tc := range rtlDiffCorpus() {
		f.Add(tc.src, int64(1))
	}
	const lanes, cycles = 4, 4
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		prog, err := rtl.ParseString(src)
		if err != nil {
			return
		}
		d, err := rtl.Elaborate(prog)
		if err != nil {
			return
		}
		// Keep each exec small: the parser bounds one array's depth, and
		// a packed array holds 64 words per address.
		words := 0
		for _, m := range d.Mems {
			words += m.Depth
		}
		for _, c := range d.Cams {
			words += c.Depth
		}
		if words > 1<<12 {
			return
		}
		ps, perr := rtl.NewPackedSimFromDesign(d)
		scalars := make([]*rtl.Sim, lanes)
		for l := range scalars {
			var serr error
			if scalars[l], serr = rtl.NewSimFromDesign(d); (serr == nil) != (perr == nil) {
				t.Fatalf("engines disagree on compiling: packed %v, scalar %v", perr, serr)
			}
		}
		if perr != nil {
			return
		}
		rng := obs.NewRNG(seed)
		for cyc := 0; cyc < cycles; cyc++ {
			for _, sd := range d.Signals {
				if sd.Kind == rtl.KindInput {
					driveRandom(t, ps, scalars, sd.Name, sd.Width, rng)
				}
			}
			ps.Cycle()
			for _, s := range scalars {
				s.Cycle()
			}
			compareRTL(t, fmt.Sprintf("cycle %d", cyc), ps, scalars)
		}
	})
}

// TestRTLPackedPipelineProgram runs the pipeline's real instruction
// program in every lane at once and checks the architectural result.
func TestRTLPackedPipelineProgram(t *testing.T) {
	prog, err := rtl.ParseString(designs.PipelineRTL())
	if err != nil {
		t.Fatal(err)
	}
	ps, err := rtl.NewPackedSim(prog)
	if err != nil {
		t.Fatal(err)
	}
	enc := func(op, rd, ra, rb, imm uint64) uint64 {
		return op<<13 | rd<<10 | ra<<7 | rb<<4 | imm
	}
	img := []uint64{
		enc(6, 1, 0, 0, 5),
		enc(6, 2, 0, 0, 3),
		enc(0, 3, 1, 2, 0),
		enc(1, 4, 3, 2, 0),
	}
	if err := ps.LoadMem("imem", img); err != nil {
		t.Fatal(err)
	}
	if err := ps.SetAll("run", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ps.Cycle()
	}
	for lane := 0; lane < rtl.Lanes; lane++ {
		if v, _ := ps.GetMem("regs", lane, 3); v != 8 {
			t.Fatalf("lane %d: r3 = %d, want 8", lane, v)
		}
		if v, _ := ps.GetMem("regs", lane, 4); v != 5 {
			t.Fatalf("lane %d: r4 = %d, want 5", lane, v)
		}
	}
	if ps.LaneCycles() != 8*rtl.Lanes {
		t.Fatalf("LaneCycles = %d, want %d", ps.LaneCycles(), 8*rtl.Lanes)
	}
}

// TestRTLPackedStimulusVsScalarLanes checks the packed stimulus path:
// each lane of a PackedStimulus-driven run must match a scalar sim
// replaying that lane's exact input sequence.
func TestRTLPackedStimulusVsScalarLanes(t *testing.T) {
	src := designs.AdderRTL(16)
	prog, err := rtl.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := rtl.NewPackedSim(prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rtl.NewPackedStimulus(ps, 7, "a", "b", "cin")
	if err != nil {
		t.Fatal(err)
	}
	// Shadow scalar sims replay the lanes via GetLane on the inputs
	// after each Vector (inputs are not overwritten by the design).
	scalars := make([]*rtl.Sim, rtl.Lanes)
	for i := range scalars {
		s, err := rtl.NewSim(prog)
		if err != nil {
			t.Fatal(err)
		}
		scalars[i] = s
	}
	for cyc := 0; cyc < 30; cyc++ {
		st.Vector()
		for lane, s := range scalars {
			for _, in := range []string{"a", "b", "cin"} {
				if err := s.Set(in, ps.GetLane(in, lane)); err != nil {
					t.Fatal(err)
				}
			}
		}
		ps.Cycle()
		for _, s := range scalars {
			s.Cycle()
		}
		compareRTL(t, fmt.Sprintf("stim cycle %d", cyc), ps, scalars)
	}
}

// TestRunBlocksDeterministic pins the lane-block scheduler's central
// contract: identical results (including digests) at any worker count.
func TestRunBlocksDeterministic(t *testing.T) {
	prog, err := rtl.ParseString(designs.AdderRTL(16))
	if err != nil {
		t.Fatal(err)
	}
	d, err := rtl.Elaborate(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rtl.BlockConfig{
		Blocks: 12,
		Cycles: 25,
		Seed:   1001,
		Inputs: []string{"a", "b", "cin"},
		Digest: []string{"s", "cout"},
	}
	var ref []rtl.BlockResult
	for _, workers := range []int{1, 4, 16} {
		cfg.Workers = workers
		got, err := rtl.RunBlocks(d, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			for b, r := range got {
				if r.Block != b {
					t.Fatalf("result %d carries block %d: merge order broken", b, r.Block)
				}
				if r.LaneCycles != uint64(cfg.Cycles)*rtl.Lanes {
					t.Fatalf("block %d: LaneCycles = %d, want %d", b, r.LaneCycles, cfg.Cycles*rtl.Lanes)
				}
			}
			continue
		}
		for b := range got {
			if got[b] != ref[b] {
				t.Fatalf("workers=%d block %d: %+v != j1 %+v", workers, b, got[b], ref[b])
			}
		}
	}
}

// TestRunBlocksObs checks the scheduler's telemetry: deterministic
// counters, workers gauge reflecting the bound actually applied.
func TestRunBlocksObs(t *testing.T) {
	prog, err := rtl.ParseString(designs.AdderRTL(8))
	if err != nil {
		t.Fatal(err)
	}
	d, err := rtl.Elaborate(prog)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	cfg := rtl.BlockConfig{Blocks: 4, Cycles: 10, Workers: 16, Seed: 5, Inputs: []string{"a", "b"}}
	if _, err := rtl.RunBlocks(d, cfg, col); err != nil {
		t.Fatal(err)
	}
	if got := col.Counter("rtl.block.lane_cycles"); got != 4*10*rtl.Lanes {
		t.Fatalf("rtl.block.lane_cycles = %d, want %d", got, 4*10*rtl.Lanes)
	}
	if got := col.Counter("rtl.block.cycles"); got != 40 {
		t.Fatalf("rtl.block.cycles = %d, want 40", got)
	}
	// Workers are clamped to the block count.
	if got := col.Gauge("rtl.block.workers"); got != 4 {
		t.Fatalf("rtl.block.workers = %v, want 4", got)
	}
}

// TestRTLPackedCycleAllocs: steady-state packed cycling must not
// allocate — all plane scratch is preallocated at compile time.
func TestRTLPackedCycleAllocs(t *testing.T) {
	prog, err := rtl.ParseString(designs.AdderRTL(16))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := rtl.NewPackedSim(prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rtl.NewPackedStimulus(ps, 3, "a", "b", "cin")
	if err != nil {
		t.Fatal(err)
	}
	st.Step()
	avg := testing.AllocsPerRun(10, func() { st.Step() })
	if avg > 0 {
		t.Fatalf("packed RTL cycle allocates %.1f/op, want 0", avg)
	}
}

// BenchmarkRTLPackedCycle is the packed twin of the scalar cycle
// benchmark: one iteration advances 64 lanes one cycle.
func BenchmarkRTLPackedCycle(b *testing.B) {
	prog, err := rtl.ParseString(designs.AdderRTL(16))
	if err != nil {
		b.Fatal(err)
	}
	ps, err := rtl.NewPackedSim(prog)
	if err != nil {
		b.Fatal(err)
	}
	st, err := rtl.NewPackedStimulus(ps, 3, "a", "b", "cin")
	if err != nil {
		b.Fatal(err)
	}
	st.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step()
	}
}

// BenchmarkRunBlocksSerial and BenchmarkRunBlocksParallel time the
// lane-block scheduler at one worker and at GOMAXPROCS: their ratio is
// the multi-core scaling the fcv bench lane_block_speedup metric
// tracks. One iteration runs the whole block set.
func runBlocksBench(b *testing.B, workers int) {
	prog, err := rtl.ParseString(designs.PipelineRTL())
	if err != nil {
		b.Fatal(err)
	}
	d, err := rtl.Elaborate(prog)
	if err != nil {
		b.Fatal(err)
	}
	cfg := rtl.BlockConfig{
		Blocks:  4 * runtime.GOMAXPROCS(0),
		Cycles:  50,
		Workers: workers,
		Seed:    9,
		Inputs:  []string{"run"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtl.RunBlocks(d, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunBlocksSerial(b *testing.B)   { runBlocksBench(b, 1) }
func BenchmarkRunBlocksParallel(b *testing.B) { runBlocksBench(b, runtime.GOMAXPROCS(0)) }
