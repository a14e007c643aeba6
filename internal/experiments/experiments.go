// Package experiments regenerates every table and figure of the paper.
// Each Exp* function runs one experiment and returns both a formatted
// report (what cmd/repro prints and EXPERIMENTS.md records) and the key
// numbers (what bench_test.go and the tests assert the *shape* of).
package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/checks"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/equiv"
	"repro/internal/flow"
	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/parasitics"
	"repro/internal/power"
	"repro/internal/process"
	"repro/internal/recognize"
	"repro/internal/rtl"
	"repro/internal/timing"
)

// Table1Result carries the computed power walk.
type Table1Result struct {
	Steps       []power.WalkStep
	TotalFactor float64
	FinalW      float64
	Report      string
}

// Table1 reproduces Table 1: the ALPHA 21064 → StrongARM power walk.
func Table1() (*Table1Result, error) {
	steps, err := power.Table1Walk(power.ALPHA21064(), power.StrongARM110())
	if err != nil {
		return nil, err
	}
	res := &Table1Result{
		Steps:       steps,
		TotalFactor: power.WalkTotalFactor(steps),
		FinalW:      steps[len(steps)-1].PowerW,
	}
	var sb strings.Builder
	sb.WriteString("Table 1: ALPHA -> StrongARM Power Dissipation\n")
	sb.WriteString(power.FormatWalk(steps))
	fmt.Fprintf(&sb, "Total reduction: %.1fx (paper: ~52x); final %.2f W (paper model 0.5 W, realized 0.45 W)\n",
		res.TotalFactor, res.FinalW)
	res.Report = sb.String()
	return res, nil
}

// Figure1Result carries the hierarchy overlap analysis.
type Figure1Result struct {
	Overlap *hier.Report
	Report  string
}

// Figure1 builds the divergent RTL/schematic hierarchies of an
// adder-like block and emits the overlap report.
func Figure1() (*Figure1Result, error) {
	// RTL view: architect's decomposition by function.
	r := hier.New(hier.ViewRTL, "adder_rtl")
	for _, b := range []string{"rtl1_pg", "rtl2_carry", "rtl3_sum"} {
		if _, err := r.AddBlock("adder_rtl", b); err != nil {
			return nil, err
		}
	}
	_ = r.AddLeaves("rtl1_pg", "pg0", "pg1", "pg2", "pg3")
	_ = r.AddLeaves("rtl2_carry", "mc0", "mc1", "mc2", "mc3")
	_ = r.AddLeaves("rtl3_sum", "xs0", "xs1", "xs2", "xs3")

	// Schematic view: circuit designer's decomposition by bit-slice and
	// by clock domain — functions moved physically (§2.1).
	s := hier.New(hier.ViewSchematic, "adder_sch")
	for _, b := range []string{"s1_loslice", "s2_dominochain", "s3_hislice"} {
		if _, err := s.AddBlock("adder_sch", b); err != nil {
			return nil, err
		}
	}
	_ = s.AddLeaves("s1_loslice", "pg0", "pg1", "xs1")
	_ = s.AddLeaves("s2_dominochain", "mc0", "mc1", "mc2", "mc3", "pg2", "xs0")
	_ = s.AddLeaves("s3_hislice", "pg3", "xs2", "xs3")

	rep, err := hier.Overlap(s, r)
	if err != nil {
		return nil, err
	}
	out := "Figure 1: RTL vs Schematic hierarchy\n" + rep.String() +
		fmt.Sprintf("aligned=%v max-fragmentation=%d (schematic blocks span up to %d RTL blocks)\n",
			rep.Aligned(), rep.MaxFragmentation(), rep.MaxFragmentation())
	return &Figure1Result{Overlap: rep, Report: out}, nil
}

// Figure2Result carries the flow execution trace.
type Figure2Result struct {
	Result *flow.Result
	Report string
}

// Figure2 executes the ALPHA design flow with its feedback edges.
func Figure2() (*Figure2Result, error) {
	f := flow.ALPHAFlow(1, 2)
	res, err := f.Run()
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	sb.WriteString("Figure 2: ALPHA design flow (with bottom-to-top interactions)\n")
	fmt.Fprintf(&sb, "  passes to convergence: %d\n", res.Iterations)
	for _, step := range []string{"behavioral-rtl", "schematic", "layout", "extract",
		"logic-verify", "circuit-verify", "timing-verify", "tapeout"} {
		fmt.Fprintf(&sb, "  %-16s executed %d time(s)\n", step, res.Executions(step))
	}
	fmt.Fprintf(&sb, "  trace: %s\n", res.TraceString())
	return &Figure2Result{Result: res, Report: sb.String()}, nil
}

// Figure3Result carries the dynamic-noise budget.
type Figure3Result struct {
	// PerSource maps noise source → (findings, worst margin).
	PerSource map[string]struct {
		Findings    int
		WorstMargin float64
	}
	Violations int
	Report     string
}

// Figure3 analyzes the noise sources of Figure 3 on a domino carry
// chain with extracted coupling.
func Figure3() (*Figure3Result, error) {
	c := designs.DominoAdder(8)
	rec, err := recognize.Analyze(c)
	if err != nil {
		return nil, err
	}
	// Extraction data: a bus aggressor couples onto two dynamic nodes.
	opt := checks.Options{
		Proc:     process.CMOS075(),
		PeriodPS: 5000,
		Couplings: []checks.Coupling{
			{Victim: "mc3_dyn", Aggressor: "bus_a", CapFF: 6},
			{Victim: "mc5_dyn", Aggressor: "bus_b", CapFF: 3},
			{Victim: "s4", Aggressor: "bus_a", CapFF: 6},
		},
	}
	res := &Figure3Result{PerSource: make(map[string]struct {
		Findings    int
		WorstMargin float64
	})}
	var sb strings.Builder
	sb.WriteString("Figure 3: noise sources in dynamic structures (domino adder, per-source budget)\n")
	sigs := netlist.ComputeSignatures(c)
	for _, source := range []string{"coupling", "charge-share", "dynamic-leakage"} {
		fs, err := checks.Run(source, rec, sigs, opt)
		if err != nil {
			return nil, err
		}
		worst := 1e9
		for _, f := range fs {
			if f.Margin < worst {
				worst = f.Margin
			}
			if f.Verdict == checks.Violation {
				res.Violations++
			}
		}
		if len(fs) == 0 {
			worst = 0
		}
		res.PerSource[source] = struct {
			Findings    int
			WorstMargin float64
		}{len(fs), worst}
		fmt.Fprintf(&sb, "  %-16s findings=%-3d worst margin=%+.2f\n", source, len(fs), worst)
	}
	sb.WriteString("  (alpha-particle and supply-difference sources are margin allocations,\n" +
		"   folded into the dynamic-node thresholds above)\n")
	res.Report = sb.String()
	return res, nil
}

// Figure4Result carries the critical-path/race analysis.
type Figure4Result struct {
	CleanRaces, RacyRaces int
	CriticalPS            float64
	MinPeriodPS           float64
	Report                string
}

// Figure4 runs the timing verifier over the clean and racy two-phase
// pipelines and the domino adder.
func Figure4() (*Figure4Result, error) {
	proc := process.CMOS075()
	clock := timing.TwoPhase(5000)
	analyze := func(cname string, ckt *netlist.Circuit) (*timing.Report, error) {
		rec, err := recognize.Analyze(ckt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cname, err)
		}
		return timing.Analyze(rec, netlist.ComputeSignatures(ckt), timing.Options{Proc: proc, Clock: clock})
	}
	clean, err := analyze("clean", designs.LatchPipeline(6, false))
	if err != nil {
		return nil, err
	}
	racy, err := analyze("racy", designs.LatchPipeline(6, true))
	if err != nil {
		return nil, err
	}
	adder, err := analyze("adder", designs.DominoAdder(16))
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{
		CleanRaces:  len(clean.Races),
		RacyRaces:   len(racy.Races),
		MinPeriodPS: adder.MinPeriodPS,
	}
	if cp := adder.CriticalPath(); cp != nil {
		res.CriticalPS = cp.Arrival.Max
	}
	var sb strings.Builder
	sb.WriteString("Figure 4: clocking and timing methodology\n")
	fmt.Fprintf(&sb, "  clean two-phase pipeline:  races=%d (phase separation is race-immune)\n", res.CleanRaces)
	fmt.Fprintf(&sb, "  same-phase (racy) pipeline: races=%d — broken at ANY frequency\n", res.RacyRaces)
	if len(racy.Races) > 0 {
		worst := racy.Races[0]
		fmt.Fprintf(&sb, "    worst race: endpoint %s, hold slack %.0f ps\n",
			racy.Circuit.NodeName(worst.Endpoint), worst.HoldSlack)
	}
	fmt.Fprintf(&sb, "  16-bit domino adder: critical arrival %.0f ps, min period %.0f ps (%.0f MHz)\n",
		res.CriticalPS, res.MinPeriodPS, 1e6/res.MinPeriodPS)
	res.Report = sb.String()
	return res, nil
}

// Figure5Result carries the lumped-vs-distributed comparison.
type Figure5Result struct {
	Rows   []Figure5Row
	Report string
}

// Figure5Row is one finger-count sample.
type Figure5Row struct {
	Fingers          int
	LumpedPS, RealPS float64
	ErrPS, ErrPct    float64
}

// Figure5 sweeps driver finger counts on the distributed-gate model.
func Figure5() (*Figure5Result, error) {
	res := &Figure5Result{}
	var sb strings.Builder
	sb.WriteString("Figure 5: real gates have multiple inputs/outputs\n")
	sb.WriteString("  fingers  lumped(ps)  distributed(ps)  error(ps)  error(%)\n")
	for _, fingers := range []int{2, 4, 8, 16} {
		g := &parasitics.DistributedGate{
			Fingers:     fingers,
			RdrvTotal:   300,
			InRes:       1800,
			InCap:       140,
			RinDrv:      900,
			CgPerFinger: 14,
			OutRes:      1400,
			OutCap:      200,
			CLoad:       150,
			Vdd:         3.45,
		}
		lumped, dist, errPS, err := g.ModelErrorPS()
		if err != nil {
			return nil, err
		}
		row := Figure5Row{
			Fingers:  fingers,
			LumpedPS: lumped,
			RealPS:   dist,
			ErrPS:    errPS,
			ErrPct:   100 * errPS / dist,
		}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(&sb, "  %7d  %10.0f  %15.0f  %9.0f  %7.1f\n",
			fingers, lumped, dist, errPS, row.ErrPct)
	}
	sb.WriteString("  (the 'Simple' single-port model underestimates; the error is what §4.3 warns about)\n")
	res.Report = sb.String()
	return res, nil
}

// S1Result carries the simulation-throughput measurement.
type S1Result struct {
	CyclesPerSec      float64
	PaperCyclesPerSec float64
	AggregateGoal     float64 // cycles/day
	CPUsAtPaperRate   float64
	CPUsAtOurRate     float64
	ParallelCyclesSec float64
	Workers           int
	Report            string
}

// S1 measures FCL simulation throughput against §4.1's numbers:
// ">200 cycles per second per simulation CPU" and "two billion
// aggregated simulated cycles per day requires ... about 100 CPUs".
func S1() (*S1Result, error) {
	prog, err := rtl.ParseString(designs.PipelineRTL())
	if err != nil {
		return nil, err
	}
	makeSim := func() (*rtl.Sim, error) {
		s, err := rtl.NewSim(prog)
		if err != nil {
			return nil, err
		}
		img := make([]uint64, 64)
		for i := range img {
			img[i] = uint64(i*2557) & 0xffff
		}
		if err := s.LoadMem("imem", img); err != nil {
			return nil, err
		}
		return s, s.Set("run", 1)
	}
	s, err := makeSim()
	if err != nil {
		return nil, err
	}
	const warm = 2000
	s.Run(warm)
	const n = 200000
	start := obs.Now()
	s.Run(n)
	elapsed := obs.Now().Sub(start)
	res := &S1Result{
		CyclesPerSec:      float64(n) / elapsed.Seconds(),
		PaperCyclesPerSec: 200,
		AggregateGoal:     2e9,
	}
	res.CPUsAtPaperRate = res.AggregateGoal / (res.PaperCyclesPerSec * 86400)
	res.CPUsAtOurRate = res.AggregateGoal / (res.CyclesPerSec * 86400)

	// Goroutine fleet: independent random-stimulus sims (the paper's
	// ~100-CPU farm, §4.1) on one host, one per GOMAXPROCS.
	res.Workers = runtime.GOMAXPROCS(0)
	perWorker := 50000
	start = obs.Now()
	errs := make([]error, res.Workers)
	par.Do(res.Workers, res.Workers, func(w int) {
		ws, err := makeSim()
		if err != nil {
			errs[w] = err
			return
		}
		ws.Run(perWorker)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.ParallelCyclesSec = float64(res.Workers*perWorker) / obs.Now().Sub(start).Seconds()

	var sb strings.Builder
	sb.WriteString("S1: RTL simulation throughput (pipeline model)\n")
	fmt.Fprintf(&sb, "  paper:   >200 cycles/sec/CPU; 2e9 cycles/day needs ~%.0f CPUs\n", res.CPUsAtPaperRate)
	fmt.Fprintf(&sb, "  this Go: %.0f cycles/sec/CPU (%.0fx the paper's rate)\n",
		res.CyclesPerSec, res.CyclesPerSec/res.PaperCyclesPerSec)
	fmt.Fprintf(&sb, "  2e9 cycles/day now needs %.2f CPUs\n", res.CPUsAtOurRate)
	fmt.Fprintf(&sb, "  goroutine fleet (%d workers): %.0f aggregate cycles/sec\n",
		res.Workers, res.ParallelCyclesSec)
	res.Report = sb.String()
	return res, nil
}

// S2Result carries the leakage sweep.
type S2Result struct {
	Points []power.LeakagePoint
	Report string
}

// S2 reproduces the §3 leakage-vs-channel-lengthening story.
func S2() (*S2Result, error) {
	chip := power.StrongARM110()
	pts := power.LeakageSweep(chip, []string{"cache", "pads"}, []float64{0, 0.045, 0.09})
	var sb strings.Builder
	sb.WriteString("S2: standby leakage vs channel lengthening (StrongARM model)\n")
	fmt.Fprintf(&sb, "  spec: < %.0f mW in the fastest process corner\n", power.StandbySpecMW)
	sb.WriteString("  ΔL(µm)   corner    leakage(mW)  meets-spec\n")
	for _, p := range pts {
		fmt.Fprintf(&sb, "  %6.3f   %-8s  %10.1f   %v\n", p.ExtraLUM, p.Corner, p.LeakageMW, p.MeetsSpec)
	}
	return &S2Result{Points: pts, Report: sb.String()}, nil
}

// S3Result carries the sequential-equivalence run.
type S3Result struct {
	Result *equiv.SeqResult
	Report string
}

// S3 checks the paper's counter-vs-shift-register example.
func S3() (*S3Result, error) {
	pa, err := rtl.ParseString(designs.Mod5CounterRTL())
	if err != nil {
		return nil, err
	}
	pb, err := rtl.ParseString(designs.Mod5RingRTL())
	if err != nil {
		return nil, err
	}
	sa, err := rtl.NewSim(pa)
	if err != nil {
		return nil, err
	}
	sb2, err := rtl.NewSim(pb)
	if err != nil {
		return nil, err
	}
	res, err := equiv.SeqEquiv(sa, sb2, []string{"tick"}, []string{"fire"}, 10000)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	sb.WriteString("S3: sequential equivalence — mod-5 counter vs 5-long one-hot ring (§4.1)\n")
	fmt.Fprintf(&sb, "  equivalent=%v, joint states explored=%d\n", res.Equivalent, res.StatesExplored)
	return &S3Result{Result: res, Report: sb.String()}, nil
}

// S4Row is one CAM-size sample. The cycle rates and their ratio are
// wall-clock measurements; the assign counts are the designs'
// deterministic per-cycle evaluation work.
type S4Row struct {
	Depth               int
	NativeCyclesSec     float64
	ExpandedCyclesSec   float64
	Slowdown            float64
	NativeAssignCount   int
	ExpandedAssignCount int
}

// S4Result carries the CAM scaling comparison.
type S4Result struct {
	Rows   []S4Row
	Report string
}

// S4 benchmarks the native CAM primitive against its gate-level
// expansion across port counts up to the paper's 2000.
func S4() (*S4Result, error) {
	res := &S4Result{}
	var sb strings.Builder
	sb.WriteString("S4: native CAM primitive vs gate-level expansion (§4.1's 2000-port CAM)\n")
	sb.WriteString("  ports  native(cyc/s)  expanded(cyc/s)  slowdown  expanded-assigns\n")
	for _, depth := range []int{64, 256, 1024, 2048} {
		native, nAssigns, err := camRate(designs.CamNativeRTL(depth))
		if err != nil {
			return nil, err
		}
		expanded, eAssigns, err := camRate(designs.CamExpandedRTL(depth))
		if err != nil {
			return nil, err
		}
		row := S4Row{
			Depth:               depth,
			NativeCyclesSec:     native,
			ExpandedCyclesSec:   expanded,
			Slowdown:            native / expanded,
			NativeAssignCount:   nAssigns,
			ExpandedAssignCount: eAssigns,
		}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(&sb, "  %5d  %13.0f  %15.0f  %7.1fx  %16d\n",
			depth, native, expanded, row.Slowdown, eAssigns)
	}
	sb.WriteString("  (the expansion's cost grows with every port; the primitive stays flat per probe)\n")
	res.Report = sb.String()
	return res, nil
}

// camRate measures cycles/sec of a CAM design under a write+probe loop.
func camRate(src string) (float64, int, error) {
	prog, err := rtl.ParseString(src)
	if err != nil {
		return 0, 0, err
	}
	s, err := rtl.NewSim(prog)
	if err != nil {
		return 0, 0, err
	}
	_ = s.Set("we", 1)
	_ = s.Set("waddr", 3)
	_ = s.Set("wdata", 0xbeef)
	s.Cycle()
	_ = s.Set("we", 0)
	_ = s.Set("key", 0xbeef)
	n := 20000
	start := obs.Now()
	for i := 0; i < n; i++ {
		_ = s.Set("key", uint64(i)&0xffff)
		s.Cycle()
	}
	return float64(n) / obs.Now().Sub(start).Seconds(), len(s.Design().Assigns), nil
}

// S5Result carries the full-battery filtering measurement.
type S5Result struct {
	PerDesign map[string]*core.Report
	// FilterEffectiveness is the aggregate auto-pass fraction.
	FilterEffectiveness float64
	Report              string
}

// S5 runs the CBV engine over the whole design zoo and reports the
// filter effectiveness (§2.3's designer-inspection-load story) and the
// CBC comparison. The table reads stage-level detail — the battery's
// verdict counts and the recognized groups — that a fleet result's
// settled summary does not keep, and the five designs are all
// distinct, so it calls core.Verify once per design.
func S5() (*S5Result, error) {
	zoo := []struct {
		name string
		c    *netlist.Circuit
	}{
		{"invchain", designs.InverterChain(12)},
		{"adder16", designs.DominoAdder(16)},
		{"pipeline", designs.LatchPipeline(6, false)},
		{"sram16x8", designs.SRAMArray(16, 8, 0.09)},
		{"passmux8", designs.PassMux(8)},
	}
	res := &S5Result{PerDesign: make(map[string]*core.Report)}
	var sb strings.Builder
	sb.WriteString("S5: §4.2 check battery + CBV/CBC comparison over the design zoo\n")
	sb.WriteString("  design      groups  findings  pass%   verdict     CBC\n")
	totalFindings, totalPass := 0, 0
	for _, d := range zoo {
		rep, err := core.Verify(d.c, core.Options{Proc: process.CMOS075()})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		res.PerDesign[d.name] = rep
		p, i, v := rep.Checks.Counts()
		totalFindings += p + i + v
		totalPass += p
		cbc, err := core.CheckCBC(d.c, process.CMOS075())
		if err != nil {
			return nil, err
		}
		cbcStr := "accepts"
		if !cbc.Accepts() {
			cbcStr = fmt.Sprintf("REJECTS %d groups", len(cbc.Rejections))
		}
		fmt.Fprintf(&sb, "  %-10s  %6d  %8d  %5.1f  %-10s  %s\n",
			d.name, len(rep.Recognition.Groups), p+i+v,
			rep.Checks.FilterEffectiveness()*100, rep.Verdict, cbcStr)
	}
	if totalFindings > 0 {
		res.FilterEffectiveness = float64(totalPass) / float64(totalFindings)
	}
	fmt.Fprintf(&sb, "  aggregate filter effectiveness: %.1f%% auto-passed\n", res.FilterEffectiveness*100)
	res.Report = sb.String()
	return res, nil
}

// S6Row is one pessimism sample.
type S6Row struct {
	Pessimism      float64
	BoundWidthPS   float64
	MinPeriodPS    float64
	RacesFlagged   int
	FalseSetupHits int
}

// S6Result carries the pessimism trade-off sweep.
type S6Result struct {
	Rows   []S6Row
	Report string
}

// S6 sweeps the coupling-bounding pessimism and measures §4.3's
// trade-off: low pessimism misses real races; high pessimism inflates
// bounds and creates false setup violations on a clean design.
func S6() (*S6Result, error) {
	proc := process.CMOS075()
	// The marginal racy design: enough logic between same-phase latches
	// that only a bounded (pessimistic) min-delay exposes the race.
	racy := marginalRacyPipeline()
	clean := designs.LatchPipeline(6, false)
	recRacy, err := recognize.Analyze(racy)
	if err != nil {
		return nil, err
	}
	recClean, err := recognize.Analyze(clean)
	if err != nil {
		return nil, err
	}
	sigsRacy, sigsClean := netlist.ComputeSignatures(racy), netlist.ComputeSignatures(clean)
	// Aggressive clock chosen so that with maximum pessimism the clean
	// design's worst path fails setup (a false violation: the design is
	// fine at nominal coupling). Found by scanning periods downward for
	// the window where nominal passes but fully-bounded analysis fails.
	negCount := func(periodPS, pess float64) (int, error) {
		r, err := timing.Analyze(recClean, sigsClean, timing.Options{
			Proc: proc, Clock: timing.TwoPhase(periodPS), CouplingPessimism: pess,
		})
		if err != nil {
			return 0, err
		}
		n := 0
		for _, p := range r.Paths {
			if p.SetupSlack < 0 {
				n++
			}
		}
		return n, nil
	}
	period := 5000.0
	for try := 5000.0; try >= 400; try *= 0.92 {
		nomNeg, err := negCount(try, 1.0001)
		if err != nil {
			return nil, err
		}
		if nomNeg > 0 {
			break // past the real limit; keep the last good period
		}
		period = try
		maxNeg, err := negCount(try, 1.7)
		if err != nil {
			return nil, err
		}
		if maxNeg > 0 {
			break // the demonstration window: nominal clean, bounded fails
		}
	}
	res := &S6Result{}
	var sb strings.Builder
	sb.WriteString("S6: min/max coupling-bounding pessimism trade-off (§4.3)\n")
	fmt.Fprintf(&sb, "  clock period %.0f ps (chosen just inside the nominal-coupling limit)\n", period)
	sb.WriteString("  pessimism  bound-width(ps)  min-period(ps)  races-caught  false-setup-violations\n")
	for _, pess := range []float64{1.0001, 1.15, 1.3, 1.5, 1.7} {
		r1, err := timing.Analyze(recRacy, sigsRacy, timing.Options{
			Proc: proc, Clock: timing.TwoPhase(period), CouplingPessimism: pess,
		})
		if err != nil {
			return nil, err
		}
		r2, err := timing.Analyze(recClean, sigsClean, timing.Options{
			Proc: proc, Clock: timing.TwoPhase(period), CouplingPessimism: pess,
		})
		if err != nil {
			return nil, err
		}
		row := S6Row{Pessimism: pess, RacesFlagged: len(r1.Races)}
		if cp := r2.CriticalPath(); cp != nil {
			row.BoundWidthPS = cp.Arrival.Max - cp.Arrival.Min
		}
		row.MinPeriodPS = r2.MinPeriodPS
		for _, p := range r2.Paths {
			if p.SetupSlack < 0 {
				row.FalseSetupHits++
			}
		}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(&sb, "  %9.2f  %15.0f  %14.0f  %12d  %22d\n",
			pess, row.BoundWidthPS, row.MinPeriodPS, row.RacesFlagged, row.FalseSetupHits)
	}
	sb.WriteString("  (bounds and false violations grow with pessimism; race coverage never shrinks)\n")
	res.Report = sb.String()
	return res, nil
}

// marginalRacyPipeline builds same-phase latches separated by a long
// inverter chain: the race margin is thin, so bounding matters.
func marginalRacyPipeline() *netlist.Circuit {
	c := netlist.New("marginal_racy")
	c.DeclarePort("d")
	designs.AddTGLatch(c, "l0", "d", "phi1", "phi1_n", "q0")
	prev := "q0"
	for i := 0; i < 24; i++ {
		next := fmt.Sprintf("w%d", i)
		designs.AddInverter(c, fmt.Sprintf("u%d", i), prev, next, 2, 4)
		prev = next
	}
	designs.AddTGLatch(c, "l1", prev, "phi1", "phi1_n", "q1")
	c.DeclarePort("q1")
	return c
}

// Experiment is one entry of List.
type Experiment struct {
	// ID is the experiment's short name ("t1", "f4", "s6", …).
	ID string
	// Run regenerates the experiment and returns its formatted report.
	Run func() (string, error)
}

// List holds every experiment in paper order; cmd/repro runs from it.
var List = []Experiment{
	{"t1", func() (string, error) { r, err := Table1(); return report(r, err) }},
	{"f1", func() (string, error) { r, err := Figure1(); return report(r, err) }},
	{"f2", func() (string, error) { r, err := Figure2(); return report(r, err) }},
	{"f3", func() (string, error) { r, err := Figure3(); return report(r, err) }},
	{"f4", func() (string, error) { r, err := Figure4(); return report(r, err) }},
	{"f5", func() (string, error) { r, err := Figure5(); return report(r, err) }},
	{"s1", func() (string, error) { r, err := S1(); return report(r, err) }},
	{"s2", func() (string, error) { r, err := S2(); return report(r, err) }},
	{"s3", func() (string, error) { r, err := S3(); return report(r, err) }},
	{"s4", func() (string, error) { r, err := S4(); return report(r, err) }},
	{"s5", func() (string, error) { r, err := S5(); return report(r, err) }},
	{"s6", func() (string, error) { r, err := S6(); return report(r, err) }},
	{"a1", func() (string, error) { r, err := A1(); return report(r, err) }},
	{"a2", func() (string, error) { r, err := A2(); return report(r, err) }},
}

// report extracts the Report field via the small interface each result
// type satisfies.
func report(r interface{ ReportString() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.ReportString(), nil
}

// ReportString returns the formatted experiment report.
func (r *Table1Result) ReportString() string { return r.Report }

// ReportString returns the formatted experiment report.
func (r *Figure1Result) ReportString() string { return r.Report }

// ReportString returns the formatted experiment report.
func (r *Figure2Result) ReportString() string { return r.Report }

// ReportString returns the formatted experiment report.
func (r *Figure3Result) ReportString() string { return r.Report }

// ReportString returns the formatted experiment report.
func (r *Figure4Result) ReportString() string { return r.Report }

// ReportString returns the formatted experiment report.
func (r *Figure5Result) ReportString() string { return r.Report }

// ReportString returns the formatted experiment report.
func (r *S1Result) ReportString() string { return r.Report }

// ReportString returns the formatted experiment report.
func (r *S2Result) ReportString() string { return r.Report }

// ReportString returns the formatted experiment report.
func (r *S3Result) ReportString() string { return r.Report }

// ReportString returns the formatted experiment report.
func (r *S4Result) ReportString() string { return r.Report }

// ReportString returns the formatted experiment report.
func (r *S5Result) ReportString() string { return r.Report }

// ReportString returns the formatted experiment report.
func (r *S6Result) ReportString() string { return r.Report }

// A1Result carries the conditional-clocking ablation.
type A1Result struct {
	GatedFactor   float64 // clock-gating factor with conditional clocking
	UngatedFactor float64 // same design, always-clocked
	ClockPowerMW  struct{ Gated, Ungated float64 }
	SavingPct     float64
	Report        string
}

// A1 is the §3 conditional-clocking ablation: the same pipeline runs the
// same program with and without conditional clocking; measured clock
// activity scales a clock-network power estimate, quantifying the knob
// the paper lists among StrongARM's "well known methods".
func A1() (*A1Result, error) {
	run := func(src string) (rtl.Activity, error) {
		prog, err := rtl.ParseString(src)
		if err != nil {
			return rtl.Activity{}, err
		}
		s, err := rtl.NewSim(prog)
		if err != nil {
			return rtl.Activity{}, err
		}
		// A realistic mix: 30% of instructions are op-7 (no writeback),
		// and the machine idles (run=0) a quarter of the time.
		img := make([]uint64, 64)
		for i := range img {
			op := uint64(i % 8)
			if i%3 == 0 {
				op = 7
			}
			img[i] = op<<13 | uint64(i%8)<<10 | uint64((i+1)%8)<<7 | uint64((i+2)%8)<<4
		}
		if err := s.LoadMem("imem", img); err != nil {
			return rtl.Activity{}, err
		}
		s.StartActivity()
		for i := 0; i < 4000; i++ {
			if err := s.Set("run", map[bool]uint64{true: 1, false: 0}[i%4 != 0]); err != nil {
				return rtl.Activity{}, err
			}
			s.Cycle()
		}
		return s.StopActivity(), nil
	}
	gated, err := run(designs.PipelineRTL())
	if err != nil {
		return nil, err
	}
	ungated, err := run(designs.PipelineRTLAlwaysClocked())
	if err != nil {
		return nil, err
	}
	res := &A1Result{
		GatedFactor:   gated.ClockGatingFactor(),
		UngatedFactor: ungated.ClockGatingFactor(),
	}
	// Clock-network power estimate: a 250 pF register-clock load at the
	// StrongARM operating point, scaled by the fraction of clock events
	// that actually fire.
	p := process.CMOS035LP()
	const clockCapPF = 250.0
	base := clockCapPF * 1e-12 * p.Vdd * p.Vdd * 160e6 * 1000 // mW
	res.ClockPowerMW.Gated = base * (1 - res.GatedFactor)
	res.ClockPowerMW.Ungated = base * (1 - res.UngatedFactor)
	if res.ClockPowerMW.Ungated > 0 {
		res.SavingPct = 100 * (1 - res.ClockPowerMW.Gated/res.ClockPowerMW.Ungated)
	}
	var sb strings.Builder
	sb.WriteString("A1 (ablation): conditional clocking on the pipeline model (§3)\n")
	fmt.Fprintf(&sb, "  conditional: %s\n", gated)
	fmt.Fprintf(&sb, "  always-on:   %s\n", ungated)
	fmt.Fprintf(&sb, "  register-clock power at 160 MHz/1.5 V over 250 pF: %.1f mW gated vs %.1f mW ungated (%.0f%% saved)\n",
		res.ClockPowerMW.Gated, res.ClockPowerMW.Ungated, res.SavingPct)
	res.Report = sb.String()
	return res, nil
}

// ReportString returns the formatted experiment report.
func (r *A1Result) ReportString() string { return r.Report }

// A2Result carries the CBC-vs-CBV methodology ablation on its own
// (referenced from S5 but runnable standalone).
type A2Result struct {
	Rows   []core.MethodologyComparison
	Report string
}

// A2 is the §2 methodology ablation: CBV verdicts vs CBC acceptance on
// progressively less library-like designs.
func A2() (*A2Result, error) {
	res := &A2Result{}
	var sb strings.Builder
	sb.WriteString("A2 (ablation): Correct-by-Verification vs Correct-by-Construction (§2)\n")
	for _, c := range []*netlist.Circuit{
		designs.InverterChain(8),
		designs.LatchPipeline(4, false),
		designs.DominoAdder(8),
		designs.PassMux(8),
	} {
		cmp, err := core.CompareMethodologies(c, core.Options{Proc: process.CMOS075()})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *cmp)
		cbc := "accepts"
		if !cmp.CBCAccepts {
			cbc = fmt.Sprintf("REJECTS %d groups", cmp.CBCRejected)
		}
		fmt.Fprintf(&sb, "  %-16s CBV=%-9s (inspect %d)  CBC %s\n",
			cmp.Design, cmp.CBVVerdict, cmp.CBVInspectLoad, cbc)
	}
	sb.WriteString("  (CBC guarantees what it accepts but cannot accept what full-custom needs — §2's argument)\n")
	res.Report = sb.String()
	return res, nil
}

// ReportString returns the formatted experiment report.
func (r *A2Result) ReportString() string { return r.Report }
