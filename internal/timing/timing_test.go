package timing

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/recognize"
)

// addInv appends an inverter to c.
func addInv(c *netlist.Circuit, name, in, out string) {
	c.NMOS(name+"_n", in, "vss", out, 2, 0.75)
	c.PMOS(name+"_p", in, "vdd", out, 4, 0.75)
}

// addTGLatch appends a transmission-gate latch: d -(ck,ckn)-> m -> q with
// weak feedback q -> m.
func addTGLatch(c *netlist.Circuit, name, d, ck, ckn, q string) {
	m := name + "_m"
	c.NMOS(name+"_pn", ck, d, m, 4, 0.75)
	c.PMOS(name+"_pp", ckn, d, m, 4, 0.75)
	addInv(c, name+"_fwd", m, q)
	c.NMOS(name+"_fbn", q, "vss", m, 1, 0.75)
	c.PMOS(name+"_fbp", q, "vdd", m, 2, 0.75)
}

// analyzeCircuit recognizes and times a circuit with default options.
func analyzeCircuit(t *testing.T, c *netlist.Circuit, opt Options) (*recognize.Result, *Report) {
	t.Helper()
	rec, err := recognize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(rec, netlist.ComputeSignatures(c), opt)
	if err != nil {
		t.Fatal(err)
	}
	return rec, rep
}

func defaultOpts() Options {
	return Options{
		Proc:  process.CMOS075(),
		Clock: TwoPhase(5000), // 200 MHz
	}
}

func TestClockSpecTwoPhase(t *testing.T) {
	spec := TwoPhase(5000)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	p1, ok := spec.PhaseOf("phi1")
	if !ok || p1.OpenPS != 0 {
		t.Errorf("phi1 = %+v ok=%v", p1, ok)
	}
	p2, ok := spec.PhaseOf("phi2")
	if !ok || p2.OpenPS != 2500 {
		t.Errorf("phi2 = %+v ok=%v", p2, ok)
	}
	if overlaps(p1, p2) {
		t.Error("two-phase windows must not overlap")
	}
	// Hierarchical and suffixed names resolve.
	if p, ok := spec.PhaseOf("core/alu/phi1_buf"); !ok || p.OpenPS != p1.OpenPS {
		t.Error("hierarchical clock name did not resolve")
	}
	// Unknown clock gets the pessimistic full-period window.
	pu, ok := spec.PhaseOf("mystery")
	if ok {
		t.Error("unknown clock reported as known")
	}
	if pu.OpenPS != 0 || pu.ClosePS != 5000 {
		t.Errorf("unknown clock window = %+v", pu)
	}
	if names := spec.PhaseNames(); len(names) != 2 || names[0] != "phi1" {
		t.Errorf("phase names = %v", names)
	}
}

func TestClockSpecValidate(t *testing.T) {
	bad := []ClockSpec{
		{PeriodPS: 0},
		{PeriodPS: 100, Phases: map[string]Phase{"a": {OpenPS: -1, ClosePS: 50}}},
		{PeriodPS: 100, Phases: map[string]Phase{"a": {OpenPS: 60, ClosePS: 50}}},
		{PeriodPS: 100, Phases: map[string]Phase{"a": {OpenPS: 0, ClosePS: 150}}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestInverterChainArrivals(t *testing.T) {
	c := netlist.New("chain")
	c.DeclarePort("a")
	prev := "a"
	var mids []string
	for i := 0; i < 6; i++ {
		next := "n" + strconv.Itoa(i)
		addInv(c, "u"+strconv.Itoa(i), prev, next)
		mids = append(mids, next)
		prev = next
	}
	c.DeclarePort(prev)
	_, rep := analyzeCircuit(t, c, defaultOpts())

	// Arrivals increase monotonically down the chain and bounds nest.
	prevMax := 0.0
	for _, name := range mids {
		b, ok := rep.Arrival[c.FindNode(name)]
		if !ok {
			t.Fatalf("no arrival at %s", name)
		}
		if b.Max <= prevMax {
			t.Errorf("%s: max arrival %g not increasing", name, b.Max)
		}
		if b.Min > b.Max || b.Min <= 0 {
			t.Errorf("%s: bad bounds %+v", name, b)
		}
		prevMax = b.Max
	}
	cp := rep.CriticalPath()
	if cp == nil {
		t.Fatal("no critical path")
	}
	if got := rep.Circuit.NodeName(cp.Endpoint); got != prev {
		t.Errorf("critical endpoint = %s, want %s", got, prev)
	}
	// The reconstructed path must start at the input and walk the chain.
	names := rep.PathNodeNames(cp)
	if len(names) != 7 || names[0] != "a" || names[6] != prev {
		t.Errorf("critical path = %v", names)
	}
	if cp.SetupSlack <= 0 {
		t.Errorf("a 6-inverter chain must meet 5 ns: slack %g", cp.SetupSlack)
	}
	if rep.MinPeriodPS <= 0 || rep.MinPeriodPS >= 5000 {
		t.Errorf("MinPeriodPS = %g", rep.MinPeriodPS)
	}
}

func TestLongerChainSlower(t *testing.T) {
	build := func(n int) *Report {
		c := netlist.New("chain")
		c.DeclarePort("a")
		prev := "a"
		for i := 0; i < n; i++ {
			next := "n" + strconv.Itoa(i)
			addInv(c, "u"+strconv.Itoa(i), prev, next)
			prev = next
		}
		c.DeclarePort(prev)
		_, rep := analyzeCircuit(t, c, defaultOpts())
		return rep
	}
	short := build(4)
	long := build(12)
	if long.CriticalPath().Arrival.Max <= short.CriticalPath().Arrival.Max {
		t.Error("longer chain should have larger max arrival")
	}
	if long.MinPeriodPS <= short.MinPeriodPS {
		t.Error("longer chain should need a longer period")
	}
}

func TestPessimismWidensBounds(t *testing.T) {
	build := func(pess float64) Bounds {
		c := netlist.New("chain")
		c.DeclarePort("a")
		prev := "a"
		for i := 0; i < 5; i++ {
			next := "n" + strconv.Itoa(i)
			addInv(c, "u"+strconv.Itoa(i), prev, next)
			prev = next
		}
		c.DeclarePort(prev)
		opt := defaultOpts()
		opt.CouplingPessimism = pess
		_, rep := analyzeCircuit(t, c, opt)
		return rep.CriticalPath().Arrival
	}
	tight := build(1.0)
	wide := build(1.5)
	if !(wide.Max > tight.Max && wide.Min < tight.Min) {
		t.Errorf("pessimism 1.5 bounds %+v should contain pessimism 1.0 bounds %+v", wide, tight)
	}
}

func TestLatchSetupCheck(t *testing.T) {
	// Input → 4 inverters → phi2 latch. Data arrives early in the
	// cycle; phi2 closes near the period end: generous setup slack.
	c := netlist.New("pipe")
	c.DeclarePort("d")
	prev := "d"
	for i := 0; i < 4; i++ {
		next := "n" + strconv.Itoa(i)
		addInv(c, "u"+strconv.Itoa(i), prev, next)
		prev = next
	}
	addTGLatch(c, "l1", prev, "phi2", "phi2n", "q")
	c.DeclarePort("q")
	rec, rep := analyzeCircuit(t, c, defaultOpts())
	if len(rec.Latches) != 1 {
		t.Fatalf("latches = %d", len(rec.Latches))
	}
	// Find the state endpoint capturing the data (the latch m node).
	var latchPath *Path
	for i := range rep.Paths {
		if rep.Circuit.NodeName(rep.Paths[i].Endpoint) == "l1_m" {
			latchPath = &rep.Paths[i]
		}
	}
	if latchPath == nil {
		t.Fatalf("no capture path at l1_m; endpoints: %v", endpointNames(rep))
	}
	if latchPath.SetupPS <= 0 {
		t.Error("deduced setup time must be positive")
	}
	if latchPath.CaptureClock == "" {
		t.Error("capture clock not identified")
	}
	if latchPath.SetupSlack <= 0 {
		t.Errorf("4 inverters into an end-of-cycle latch must pass: slack %g", latchPath.SetupSlack)
	}
	if len(rep.Races) != 0 {
		t.Errorf("phi2 capture of input-launched data must not race: %+v", rep.Races)
	}
}

func TestSamePhaseRaceDetected(t *testing.T) {
	// Figure 4's race: two phi1 latches back-to-back with one inverter
	// between them. Data launched at phi1 open flows through the second
	// latch while it is still transparent — broken at any frequency.
	c := netlist.New("racey")
	c.DeclarePort("d")
	addTGLatch(c, "l1", "d", "phi1", "phi1n", "q1")
	addInv(c, "u1", "q1", "d2")
	addTGLatch(c, "l2", "d2", "phi1", "phi1n", "q2")
	c.DeclarePort("q2")
	_, rep := analyzeCircuit(t, c, defaultOpts())
	if len(rep.Races) == 0 {
		t.Fatalf("same-phase back-to-back latches must race; endpoints: %v", endpointNames(rep))
	}
	worst := rep.Races[0]
	if worst.HoldSlack >= 0 {
		t.Error("race must have negative hold slack")
	}
}

func TestAlternatingPhasesNoRace(t *testing.T) {
	// The corrected pipeline: phi1 latch → logic → phi2 latch.
	c := netlist.New("clean")
	c.DeclarePort("d")
	addTGLatch(c, "l1", "d", "phi1", "phi1n", "q1")
	addInv(c, "u1", "q1", "d2")
	addTGLatch(c, "l2", "d2", "phi2", "phi2n", "q2")
	c.DeclarePort("q2")
	_, rep := analyzeCircuit(t, c, defaultOpts())
	for _, r := range rep.Races {
		// Only races internal to one latch loop (m↔q feedback within
		// the same clock) would be acceptable; between latches is not.
		t.Errorf("unexpected race at %s (slack %g)", rep.Circuit.NodeName(r.Endpoint), r.HoldSlack)
	}
}

func TestFalsePathExcluded(t *testing.T) {
	// Marking the chain input false_path removes downstream arrivals.
	c := netlist.New("fp")
	c.DeclarePort("a")
	addInv(c, "u1", "a", "m")
	addInv(c, "u2", "m", "y")
	c.DeclarePort("y")
	c.SetAttr(c.Node("a"), "false_path", "")
	_, rep := analyzeCircuit(t, c, defaultOpts())
	if _, ok := rep.Arrival[c.FindNode("y")]; ok {
		t.Error("false_path input should cut all arcs from it")
	}
}

func TestDominoLaunchesFromClock(t *testing.T) {
	// Domino gate followed by static buffer: the dynamic node launches
	// at evaluate (phi1 open), so the buffer output's arrival sits
	// after the phi1 open edge.
	c := netlist.New("dom")
	c.DeclarePort("a")
	c.DeclarePort("b")
	c.PMOS("mpre", "phi1", "vdd", "dyn", 4, 0.75)
	c.NMOS("ma", "a", "x1", "dyn", 6, 0.75)
	c.NMOS("mb", "b", "x2", "x1", 6, 0.75)
	c.NMOS("mfoot", "phi1", "vss", "x2", 8, 0.75)
	addInv(c, "buf", "dyn", "out")
	c.DeclarePort("out")
	_, rep := analyzeCircuit(t, c, defaultOpts())
	b, ok := rep.Arrival[c.FindNode("out")]
	if !ok {
		t.Fatal("no arrival at out")
	}
	if b.Min <= 0 {
		t.Errorf("domino output min arrival %g should be after the clock edge", b.Min)
	}
}

func TestAnalyzeOptionValidation(t *testing.T) {
	c := netlist.New("x")
	addInv(c, "u", "a", "y")
	rec, err := recognize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(rec, netlist.ComputeSignatures(c), Options{Clock: TwoPhase(1000)}); err == nil {
		t.Error("missing process should fail")
	}
	if _, err := Analyze(rec, netlist.ComputeSignatures(c), Options{Proc: process.CMOS075(), Clock: ClockSpec{}}); err == nil {
		t.Error("invalid clock should fail")
	}
	if _, err := Analyze(rec, netlist.ComputeSignatures(c), Options{Proc: process.CMOS075(), Clock: TwoPhase(1000), CouplingPessimism: 0.5}); err == nil {
		t.Error("pessimism < 1 should fail")
	}
}

func TestInputArrivalOverride(t *testing.T) {
	c := netlist.New("ovr")
	c.DeclarePort("a")
	addInv(c, "u", "a", "y")
	c.DeclarePort("y")
	opt := defaultOpts()
	opt.InputArrival = map[string]Bounds{"a": {Min: 100, Max: 400}}
	_, rep := analyzeCircuit(t, c, opt)
	b := rep.Arrival[c.FindNode("y")]
	if b.Min <= 100 || b.Max <= 400 {
		t.Errorf("override not honored: %+v", b)
	}
}

func TestMinMaxOrderingInvariant(t *testing.T) {
	// For every node with an arrival, Min ≤ Max must hold.
	c := netlist.New("mix")
	c.DeclarePort("a")
	c.DeclarePort("b")
	addInv(c, "u1", "a", "m1")
	addInv(c, "u2", "b", "m2")
	c.NMOS("mn1", "m1", "x", "y", 4, 0.75)
	c.NMOS("mn2", "m2", "vss", "x", 4, 0.75)
	c.PMOS("mp1", "m1", "vdd", "y", 4, 0.75)
	c.PMOS("mp2", "m2", "vdd", "y", 4, 0.75)
	c.DeclarePort("y")
	_, rep := analyzeCircuit(t, c, defaultOpts())
	for id, b := range rep.Arrival {
		if b.Min > b.Max {
			t.Errorf("node %s: Min %g > Max %g", rep.Circuit.NodeName(id), b.Min, b.Max)
		}
	}
}

// endpointNames lists report endpoints for failure messages.
func endpointNames(rep *Report) []string {
	var out []string
	for _, p := range rep.Paths {
		out = append(out, rep.Circuit.NodeName(p.Endpoint))
	}
	return out
}

func TestSinglePhaseSpec(t *testing.T) {
	spec := SinglePhase(2000)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	p, ok := spec.PhaseOf("clk")
	if !ok || p.ClosePS != 1000 {
		t.Errorf("clk phase = %+v ok=%v", p, ok)
	}
}

func TestRaceIndependentOfFrequency(t *testing.T) {
	// The same racey circuit at a 10× slower clock still races (§4.3:
	// race paths "will prevent the chip from working at any frequency").
	build := func(period float64) int {
		c := netlist.New("racey")
		c.DeclarePort("d")
		addTGLatch(c, "l1", "d", "phi1", "phi1n", "q1")
		addInv(c, "u1", "q1", "d2")
		addTGLatch(c, "l2", "d2", "phi1", "phi1n", "q2")
		c.DeclarePort("q2")
		opt := defaultOpts()
		opt.Clock = TwoPhase(period)
		_, rep := analyzeCircuit(t, c, opt)
		return len(rep.Races)
	}
	if build(5000) == 0 || build(50000) == 0 {
		t.Error("race must persist at any frequency")
	}
}

func TestSetupSlackMath(t *testing.T) {
	// SetupSlack must equal RequiredMax - Arrival.Max on every path.
	c := netlist.New("chk")
	c.DeclarePort("a")
	addInv(c, "u1", "a", "m")
	addInv(c, "u2", "m", "y")
	c.DeclarePort("y")
	_, rep := analyzeCircuit(t, c, defaultOpts())
	for _, p := range rep.Paths {
		if math.Abs(p.SetupSlack-(p.RequiredMax-p.Arrival.Max)) > 1e-9 {
			t.Errorf("slack math wrong at %s", rep.Circuit.NodeName(p.Endpoint))
		}
	}
}

func TestClockSkewTightensChecks(t *testing.T) {
	build := func(skew float64) *Report {
		c := netlist.New("sk")
		c.DeclarePort("d")
		addTGLatch(c, "l1", "d", "phi1", "phi1n", "q1")
		addInv(c, "u1", "q1", "d2")
		addTGLatch(c, "l2", "d2", "phi2", "phi2n", "q2")
		c.DeclarePort("q2")
		opt := defaultOpts()
		opt.ClockSkewPS = skew
		_, rep := analyzeCircuit(t, c, opt)
		return rep
	}
	noSkew := build(0)
	skewed := build(200)
	if skewed.CriticalPath().SetupSlack >= noSkew.CriticalPath().SetupSlack {
		t.Errorf("skew should cut setup slack: %.0f vs %.0f",
			skewed.CriticalPath().SetupSlack, noSkew.CriticalPath().SetupSlack)
	}
	// Hold slack tightens too on raceable (same-phase) topologies.
	buildRacy := func(skew float64) float64 {
		c := netlist.New("skr")
		c.DeclarePort("d")
		addTGLatch(c, "l1", "d", "phi1", "phi1n", "q1")
		addInv(c, "u1", "q1", "d2")
		addTGLatch(c, "l2", "d2", "phi1", "phi1n", "q2")
		c.DeclarePort("q2")
		opt := defaultOpts()
		opt.ClockSkewPS = skew
		_, rep := analyzeCircuit(t, c, opt)
		if len(rep.Races) == 0 {
			t.Fatal("race lost")
		}
		return rep.Races[0].HoldSlack
	}
	if buildRacy(200) >= buildRacy(0) {
		t.Error("skew should worsen hold slack")
	}
	// Negative skew is rejected.
	c := netlist.New("bad")
	addInv(c, "u", "a", "y")
	rec, err := recognize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	opt := defaultOpts()
	opt.ClockSkewPS = -5
	if _, err := Analyze(rec, netlist.ComputeSignatures(c), opt); err == nil {
		t.Error("negative skew accepted")
	}
}
