package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/fleet"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/process"
	"repro/internal/rtl"
	"repro/internal/switchsim"
)

// BenchMetrics is the JSON shape of `fcv bench -out BENCH_fleet.json`:
// the numbers the repo benchmark (perfbench) deliberately leaves out —
// the scalar RTL loop, the switch-level engine one vector at a time
// against 64 lanes at a time, block-parallel cycles/day, the persistent
// disk cache and the hierarchical cold-vs-edit ratio — in
// machine-readable form, so CI can archive and trend-gate them per
// commit.
type BenchMetrics struct {
	// GOMAXPROCS records the parallelism available to the run; the
	// block-parallel and hierarchical numbers are bounded by it.
	GOMAXPROCS int `json:"gomaxprocs"`
	// RTLCyclesPerSec is the scalar RTL simulation throughput of the S1
	// pipeline workload (the paper's 200 cycles/sec yardstick).
	RTLCyclesPerSec float64 `json:"rtl_cycles_per_sec"`
	// DiskColdDesignsPerSec and DiskWarmDesignsPerSec measure the
	// persistent cache: one run populating an empty cache directory,
	// then a fresh process-equivalent run replaying from it.
	// DiskWarmSpeedup is warm/cold — the incremental-verification win.
	DiskColdDesignsPerSec float64 `json:"disk_cold_designs_per_sec"`
	DiskWarmDesignsPerSec float64 `json:"disk_warm_designs_per_sec"`
	DiskWarmSpeedup       float64 `json:"disk_warm_speedup"`
	// VectorsPerSec is the packed switch-level settle throughput in
	// stimulus vectors per second (64 lanes per settle) on the clocked
	// domino-adder kernel; OneLaneVectorsPerSec is the same engine
	// driving one vector (every lane alike) through the identical step,
	// and LaneParallelSpeedup is their ratio — the per-settle
	// bit-parallel win, independent of goroutine count.
	VectorsPerSec        float64 `json:"vectors_per_sec"`
	OneLaneVectorsPerSec float64 `json:"one_lane_vectors_per_sec"`
	LaneParallelSpeedup  float64 `json:"lane_parallel_speedup"`
	// CyclesPerDay extrapolates the measured block-parallel packed-RTL
	// rate (blocks x 64 lanes x LaneBlockWorkers goroutines on the S1
	// pipeline) to a day — the paper's §4.1 farm yardstick (~2e9
	// cycles/day across ~100 CPUs). LaneBlockWorkers is the worker count
	// that measurement actually ran with (par.Workers, the rule
	// rtl.RunBlocks applies: GOMAXPROCS clamped to the block count), so
	// the baseline says unambiguously how much goroutine scaling the
	// figure includes.
	CyclesPerDay     float64 `json:"cycles_per_day"`
	LaneBlockWorkers int     `json:"lane_block_workers"`
	// LaneBlockSpeedup divides the block-parallel rate above by the same
	// workload pinned to one worker goroutine — the multi-core scaling
	// factor of the lane-block scheduler, separate from the per-settle
	// bit-parallel win.
	LaneBlockSpeedup float64 `json:"lane_block_speedup"`
	// Hier* measure hierarchical incremental verification on the deep
	// tree corpus (designs.DeepTree): HierColdDesignsPerSec verifies the
	// whole hierarchy against an empty cache; HierEditOneLeafReverifyPerSec
	// re-verifies after a scripted one-leaf edit against the warm shared
	// cache, so only the edited leaf and its root path recompute.
	// HierIncrementalSpeedup is warm/cold — the edit-one-leaf headline.
	HierColdDesignsPerSec         float64 `json:"hier_cold_designs_per_sec"`
	HierEditOneLeafReverifyPerSec float64 `json:"hier_edit_one_leaf_reverify_per_sec"`
	HierIncrementalSpeedup        float64 `json:"hier_incremental_speedup"`
}

// benchZoo is the disk-cache corpus: the S5 design zoo swept across
// sizes so every item has a distinct structural fingerprint and so its
// own cache entry.
func benchZoo() []fleet.Item {
	var items []fleet.Item
	add := func(name string, c *netlist.Circuit) {
		items = append(items, fleet.Item{Name: name, Circuit: c})
	}
	for _, n := range []int{8, 12, 16, 24, 32, 48} {
		add(fmt.Sprintf("invchain%d", n), designs.InverterChain(n))
	}
	for _, bits := range []int{8, 12, 16, 20, 24, 32} {
		add(fmt.Sprintf("adder%d", bits), designs.DominoAdder(bits))
	}
	for _, stages := range []int{4, 6, 8, 10, 12, 14} {
		add(fmt.Sprintf("pipeline%d", stages), designs.LatchPipeline(stages, false))
	}
	add("sram8x4", designs.SRAMArray(8, 4, 0.09))
	add("sram16x8", designs.SRAMArray(16, 8, 0.09))
	add("sram16x16", designs.SRAMArray(16, 16, 0.09))
	for _, n := range []int{4, 8, 16} {
		add(fmt.Sprintf("passmux%d", n), designs.PassMux(n))
	}
	return items
}

// The lane-throughput loops clock DominoAdder(laneBits) on its precharge
// clock laneClock and toggle laneData; laneHeld fixes every other input
// once. With b0 high and carry-in low, a0 alone sets the carry out of
// bit 0, and every higher bit propagates (a high, b low), so each toggle
// ripples down the whole carry chain to cout.
const (
	laneBits  = 16
	laneClock = "phi1"
	laneData  = "a0"
	laneSeed  = 47 // seeds the packed loop's lane pattern
)

// laneInput is one input the lane loops hold and its level.
type laneInput struct {
	name  string
	level switchsim.Value
}

// laneHeld returns the adder inputs the lane loops hold fixed.
func laneHeld() []laneInput {
	held := []laneInput{{"b0", switchsim.Hi}, {"cin", switchsim.Lo}}
	for i := 1; i < laneBits; i++ {
		held = append(held,
			laneInput{fmt.Sprintf("a%d", i), switchsim.Hi},
			laneInput{fmt.Sprintf("b%d", i), switchsim.Lo})
	}
	return held
}

// newLaneAdder returns the lane loops' settled simulator, its held
// inputs set.
func newLaneAdder() (*switchsim.PackedSim, error) {
	p, err := switchsim.NewPacked(designs.DominoAdder(laneBits))
	if err != nil {
		return nil, err
	}
	for _, in := range laneHeld() {
		p.SetQuietAll(in.name, in.level)
	}
	p.Settle()
	return p, nil
}

// laneEven returns pattern on even steps and its complement on odd
// ones, so every lane toggles on every step.
func laneEven(step int, pattern uint64) uint64 {
	if step%2 == 1 {
		return ^pattern
	}
	return pattern
}

// laneStep runs one clocked step with laneData high in the lanes set in
// hi and low in the rest. The data changes while the clock precharges,
// as domino inputs must: changed with the evaluate edge, a falling
// generate would glitch the carry node low in that lane.
func laneStep(p *switchsim.PackedSim, hi uint64) {
	p.SetQuietAll(laneClock, switchsim.Lo)
	p.SetQuietLanes(laneData, hi, ^hi)
	p.Settle()
	p.SetQuietAll(laneClock, switchsim.Hi)
	p.Settle()
}

// bestRate calls run reps times and returns the best rate: work units
// per second of run's wall clock. prep, when non-nil, does rep r's
// set-up outside the timed region. Scheduling noise on a shared host
// only ever slows a run down, so the best rep is the least-biased
// estimate and keeps the trend gate from firing on machine load.
func bestRate(reps int, work float64, prep, run func(r int) error) (float64, error) {
	var best float64
	for r := 0; r < reps; r++ {
		if prep != nil {
			if err := prep(r); err != nil {
				return 0, err
			}
		}
		t0 := obs.Now()
		if err := run(r); err != nil {
			return 0, err
		}
		if rate := work / obs.Now().Sub(t0).Seconds(); rate > best {
			best = rate
		}
	}
	return best, nil
}

// runBench measures the metrics in-process and writes them as JSON:
//
//	fcv bench [-out BENCH_fleet.json] [-cycles N] [-reps N] [-manifest m.json]
//
// -manifest additionally writes a run manifest (the same schema as
// `fcv verify -manifest`) carrying the bench's telemetry: RTL cycle
// counters and per-phase timings, the cold disk-cache pass's fleet
// spans and cache counters, and the metrics as gauges.
func runBench(args []string, out *os.File) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	outPath := fs.String("out", "BENCH_fleet.json", "metrics JSON output path (\"-\" for stdout)")
	cycles := fs.Int("cycles", 20000, "RTL cycles to time")
	reps := fs.Int("reps", 3, "repetitions per measurement (best rate wins)")
	manifestPath := fs.String("manifest", "", "write a run-manifest JSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 1 {
		*reps = 1
	}
	var col *obs.Collector
	if *manifestPath != "" {
		col = obs.New()
	}
	// Telemetry observes the first rep only, so manifest counters do
	// not scale with -reps.
	first := func(r int) *obs.Collector {
		if r == 0 {
			return col
		}
		return nil
	}
	benchStart := obs.Now()
	m := BenchMetrics{GOMAXPROCS: runtime.GOMAXPROCS(0)}

	// RTL simulation throughput (the S1 workload, shortened).
	prog, err := rtl.ParseString(designs.PipelineRTL())
	if err != nil {
		return err
	}
	sim, err := rtl.NewSim(prog)
	if err != nil {
		return err
	}
	img := make([]uint64, 64)
	for i := range img {
		img[i] = uint64(i*2557) & 0xffff
	}
	if err := sim.LoadMem("imem", img); err != nil {
		return err
	}
	if err := sim.Set("run", 1); err != nil {
		return err
	}
	sim.Run(*cycles / 10) // warm-up
	m.RTLCyclesPerSec, err = bestRate(*reps, float64(*cycles),
		func(r int) error { sim.SetObserver(first(r)); return nil },
		func(int) error { sim.Run(*cycles); return nil })
	if err != nil {
		return err
	}

	// Bit-parallel lane throughput: the switch-level engine on the same
	// clocked domino-adder step, first driving one vector (every lane
	// alike), then 64 independent stimulus lanes per settle, so the
	// packed pass counts 64 vectors where the one-lane pass counts one.
	// Both toggle the data input in every lane on every step.
	laneSteps := max(*cycles/50, 300)
	packed, err := newLaneAdder()
	if err != nil {
		return err
	}
	m.OneLaneVectorsPerSec, err = bestRate(*reps, float64(laneSteps), nil, func(int) error {
		for i := 0; i < laneSteps; i++ {
			laneStep(packed, laneEven(i, ^uint64(0)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	pattern := obs.NewRNG(laneSeed).Uint64()
	m.VectorsPerSec, err = bestRate(*reps, float64(laneSteps*switchsim.Lanes),
		func(r int) error { packed.SetObserver(first(r)); return nil },
		func(int) error {
			for i := 0; i < laneSteps; i++ {
				laneStep(packed, laneEven(i, pattern))
			}
			return nil
		})
	if err != nil {
		return err
	}
	m.LaneParallelSpeedup = m.VectorsPerSec / m.OneLaneVectorsPerSec

	// Block-parallel packed RTL on the S1 pipeline: independent 64-lane
	// blocks across goroutine workers, extrapolated to cycles/day.
	pipeDesign, err := rtl.Elaborate(prog)
	if err != nil {
		return err
	}
	bcfg := rtl.BlockConfig{
		Blocks: 4 * m.GOMAXPROCS,
		Cycles: max(*cycles/40, 50),
		Seed:   9,
		Inputs: []string{"run"},
	}
	m.LaneBlockWorkers = par.Workers(bcfg.Workers, bcfg.Blocks)
	laneCyclesPerDay := float64(bcfg.Blocks) * float64(bcfg.Cycles) * rtl.Lanes * 86400
	m.CyclesPerDay, err = bestRate(*reps, laneCyclesPerDay, nil, func(r int) error {
		_, err := rtl.RunBlocks(pipeDesign, bcfg, first(r))
		return err
	})
	if err != nil {
		return err
	}
	// The same block set pinned to one worker goroutine is the serial
	// baseline for the multi-core scaling factor.
	bcfg1 := bcfg
	bcfg1.Workers = 1
	laneBlockSerial, err := bestRate(*reps, laneCyclesPerDay, nil, func(int) error {
		_, err := rtl.RunBlocks(pipeDesign, bcfg1, nil)
		return err
	})
	if err != nil {
		return err
	}
	m.LaneBlockSpeedup = m.CyclesPerDay / laneBlockSerial

	// Persistent-cache throughput: populate an empty directory cold,
	// then replay it warm with fresh in-memory state — the same contract
	// as two fcv processes sharing -cache-dir. The first cold pass is the
	// manifest's corpus half.
	items := benchZoo()
	diskDir, err := os.MkdirTemp("", "fcv-bench-cache")
	if err != nil {
		return err
	}
	defer os.RemoveAll(diskDir)
	var diskOpts fleet.Options
	openDisk := func(o *obs.Collector) error {
		dc, err := fleet.OpenDiskCache(diskDir)
		if err != nil {
			return err
		}
		diskOpts = fleet.Options{
			Core:      core.Options{Proc: process.CMOS075()},
			Workers:   1,
			Cache:     fleet.NewCache(),
			DiskCache: dc,
			Obs:       o,
		}
		return nil
	}
	var coldRep *fleet.Report
	m.DiskColdDesignsPerSec, err = bestRate(*reps, float64(len(items)),
		func(r int) error {
			if err := os.RemoveAll(diskDir); err != nil {
				return err
			}
			return openDisk(first(r))
		},
		func(r int) error {
			if rep := fleet.Verify(items, diskOpts); r == 0 {
				coldRep = rep
			}
			return nil
		})
	if err != nil {
		return err
	}
	m.DiskWarmDesignsPerSec, err = bestRate(*reps, float64(len(items)),
		func(int) error { return openDisk(nil) },
		func(int) error { fleet.Verify(items, diskOpts); return nil })
	if err != nil {
		return err
	}
	m.DiskWarmSpeedup = m.DiskWarmDesignsPerSec / m.DiskColdDesignsPerSec

	// Hierarchical incremental verification on the deep-tree corpus: cold
	// passes build the whole hierarchy against an empty cache; warm
	// passes re-verify scripted one-leaf edits (each a distinct tweak, so
	// every pass honestly misses the edited leaf plus its root path)
	// against one shared cache. Their ratio is the edit-one-leaf
	// incremental win.
	const hierLevels, hierVariants = 3, 20
	hierOpts := func(c *fleet.Cache) fleet.Options {
		return fleet.Options{
			Core:    core.Options{Proc: process.CMOS075()},
			Workers: m.GOMAXPROCS,
			Cache:   c,
		}
	}
	var lib *netlist.Library
	var top string
	m.HierColdDesignsPerSec, err = bestRate(*reps, 1,
		func(int) error { lib, top = designs.DeepTree(hierLevels, hierVariants, 0); return nil },
		func(int) error {
			_, err := fleet.VerifyHier(lib, lib.Cell(top), hierOpts(fleet.NewCache()))
			return err
		})
	if err != nil {
		return err
	}
	hierCache := fleet.NewCache()
	lib, top = designs.DeepTree(hierLevels, hierVariants, 0)
	if _, err := fleet.VerifyHier(lib, lib.Cell(top), hierOpts(hierCache)); err != nil {
		return err
	}
	m.HierEditOneLeafReverifyPerSec, err = bestRate(max(2**reps, 6), 1,
		func(i int) error {
			lib, top = designs.DeepTree(hierLevels, hierVariants, 0.1+0.01*float64(i))
			return nil
		},
		func(int) error {
			_, err := fleet.VerifyHier(lib, lib.Cell(top), hierOpts(hierCache))
			return err
		})
	if err != nil {
		return err
	}
	m.HierIncrementalSpeedup = m.HierEditOneLeafReverifyPerSec / m.HierColdDesignsPerSec

	if *manifestPath != "" {
		// The metrics ride along as gauges so the trend tooling can read
		// everything from one artifact.
		col.SetGauge("bench.rtl_cycles_per_sec", m.RTLCyclesPerSec)
		col.SetGauge("bench.disk_cold_designs_per_sec", m.DiskColdDesignsPerSec)
		col.SetGauge("bench.disk_warm_designs_per_sec", m.DiskWarmDesignsPerSec)
		col.SetGauge("bench.vectors_per_sec", m.VectorsPerSec)
		col.SetGauge("bench.lane_parallel_speedup", m.LaneParallelSpeedup)
		col.SetGauge("bench.cycles_per_day", m.CyclesPerDay)
		col.SetGauge("bench.lane_block_speedup", m.LaneBlockSpeedup)
		col.SetGauge("bench.hier_cold_designs_per_sec", m.HierColdDesignsPerSec)
		col.SetGauge("bench.hier_edit_one_leaf_reverify_per_sec", m.HierEditOneLeafReverifyPerSec)
		col.SetGauge("bench.hier_incremental_speedup", m.HierIncrementalSpeedup)
		mf := fleet.BuildManifest("fcv bench", coldRep, col)
		mf.WallMS = float64(obs.Now().Sub(benchStart).Microseconds()) / 1000
		if err := mf.WriteFile(*manifestPath); err != nil {
			return err
		}
	}

	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *outPath == "-" {
		_, err = out.Write(b)
		return err
	}
	// Atomic write: CI uploads this file as an artifact, and an
	// interrupted run must never leave a truncated JSON for the
	// uploader (or the trend gate) to read.
	if err := obs.WriteFileAtomic(*outPath, b); err != nil {
		return err
	}
	fmt.Fprintf(out, "bench: rtl=%.0f cycles/sec, lanes=%.0f vectors/sec (%.1fx one-lane), %.3g cycles/day at %d block workers (%.2fx serial), disk warm=%.2fx -> %s\n",
		m.RTLCyclesPerSec, m.VectorsPerSec, m.LaneParallelSpeedup, m.CyclesPerDay, m.LaneBlockWorkers, m.LaneBlockSpeedup, m.DiskWarmSpeedup, *outPath)
	fmt.Fprintf(out, "bench: hier cold=%.1f designs/sec, edit-one-leaf warm=%.1f designs/sec (%.1fx incremental)\n",
		m.HierColdDesignsPerSec, m.HierEditOneLeafReverifyPerSec, m.HierIncrementalSpeedup)
	return nil
}
