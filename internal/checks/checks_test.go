package checks

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/recognize"
)

// rec recognizes a circuit or fails the test.
func rec(t *testing.T, c *netlist.Circuit) *recognize.Result {
	t.Helper()
	r, err := recognize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runAll and run call RunAll and Run with the recognized circuit's own
// signature table, as core.Verify does.
func runAll(r *recognize.Result, opt Options) (*Report, error) {
	return RunAll(r, netlist.ComputeSignatures(r.Circuit), opt)
}

func run(name string, r *recognize.Result, opt Options) ([]Finding, error) {
	return Run(name, r, netlist.ComputeSignatures(r.Circuit), opt)
}

func opts() Options {
	return Options{Proc: process.CMOS075(), PeriodPS: 5000}
}

// addInv appends an inverter with chosen widths.
func addInv(c *netlist.Circuit, name, in, out string, wn, wp float64) {
	c.NMOS(name+"_n", in, "vss", out, wn, 0.75)
	c.PMOS(name+"_p", in, "vdd", out, wp, 0.75)
}

// domino builds a footed domino AND2 with optional keeper.
func domino(keeper bool, internalCapFF float64) *netlist.Circuit {
	c := netlist.New("dom")
	c.DeclarePort("a")
	c.DeclarePort("b")
	c.PMOS("mpre", "phi1", "vdd", "dyn", 4, 0.75)
	c.NMOS("ma", "a", "x1", "dyn", 6, 0.75)
	c.NMOS("mb", "b", "x2", "x1", 6, 0.75)
	c.NMOS("mfoot", "phi1", "vss", "x2", 8, 0.75)
	addInv(c, "buf", "dyn", "out", 2, 4)
	c.DeclarePort("out")
	if keeper {
		c.PMOS("mkeep", "out", "vdd", "dyn", 1, 1.5)
	}
	if internalCapFF > 0 {
		c.AddCap("x1", internalCapFF)
	}
	return c
}

func TestRunAllProducesAllChecks(t *testing.T) {
	c := domino(false, 0)
	rep, err := runAll(rec(t, c), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings")
	}
	// Every named check must have an entry in ByCheck (even if zero
	// findings, the map key exists).
	for _, name := range CheckNames() {
		if _, ok := rep.ByCheck[name]; !ok {
			t.Errorf("check %s missing from report", name)
		}
	}
	// The report keeps only what the designer sees; passes are counted.
	p, i, v := rep.Counts()
	if i+v != len(rep.Findings) {
		t.Errorf("inspect %d + violation %d != %d kept findings", i, v, len(rep.Findings))
	}
	if all := runEach(t, rec(t, c), netlist.ComputeSignatures(c), opts()); p+i+v != len(all) {
		t.Errorf("counts %d+%d+%d != %d findings of per-check Run", p, i, v, len(all))
	}
	if p == 0 {
		t.Error("domino battery counted no passes")
	}
	if fe := rep.FilterEffectiveness(); fe < 0 || fe > 1 {
		t.Errorf("filter effectiveness %g out of range", fe)
	}
	if !strings.Contains(rep.Summary(), "beta-ratio") {
		t.Error("summary missing checks")
	}
}

func TestRunSingleAndUnknown(t *testing.T) {
	c := domino(false, 0)
	fs, err := run("charge-share", rec(t, c), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) == 0 {
		t.Error("charge-share produced nothing for a domino gate")
	}
	if _, err := run("nope", rec(t, c), opts()); err == nil {
		t.Error("unknown check should fail")
	}
	if _, err := runAll(rec(t, c), Options{}); err == nil {
		t.Error("missing process should fail")
	}
}

func TestBetaRatioBalancedVsSkewed(t *testing.T) {
	good := netlist.New("good")
	good.DeclarePort("y")
	addInv(good, "u", "a", "y", 2, 5) // ≈balanced (mobility ratio ~2.4)
	bad := netlist.New("bad")
	bad.DeclarePort("y")
	addInv(bad, "u", "a", "y", 20, 1) // grotesquely skewed

	fsGood, err := run("beta-ratio", rec(t, good), opts())
	if err != nil {
		t.Fatal(err)
	}
	fsBad, err := run("beta-ratio", rec(t, bad), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fsGood) != 1 || fsGood[0].Verdict != Pass {
		t.Errorf("balanced inverter: %+v", fsGood)
	}
	if len(fsBad) != 1 || fsBad[0].Verdict == Pass {
		t.Errorf("skewed inverter should not pass: %+v", fsBad)
	}
	if fsBad[0].Margin >= fsGood[0].Margin {
		t.Error("skewed margin should be lower")
	}
}

func TestBetaRatioRatioedStructure(t *testing.T) {
	// Pseudo-NMOS with a decisive driver passes; a marginal one fails.
	build := func(wn float64) *netlist.Circuit {
		c := netlist.New("pn")
		c.DeclarePort("y")
		c.PMOS("mload", "vss", "vdd", "y", 2, 1.5)
		c.NMOS("mdrv", "a", "vss", "y", wn, 0.75)
		return c
	}
	fsStrong, err := run("beta-ratio", rec(t, build(16)), opts())
	if err != nil {
		t.Fatal(err)
	}
	fsWeak, err := run("beta-ratio", rec(t, build(0.5)), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fsStrong) != 1 || fsStrong[0].Verdict != Pass {
		t.Errorf("strong ratioed driver: %+v", fsStrong)
	}
	if len(fsWeak) != 1 || fsWeak[0].Verdict != Violation {
		t.Errorf("weak ratioed driver should violate: %+v", fsWeak)
	}
}

func TestEdgeRateFlagsOverloadedDriver(t *testing.T) {
	// A minimum inverter driving 2 pF is a slow-edge hazard.
	c := netlist.New("slow")
	c.DeclarePort("y")
	addInv(c, "u", "a", "y", 2, 4)
	c.AddCap("y", 2000)
	fs, err := run("edge-rate", rec(t, c), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Verdict == Pass {
		t.Errorf("overloaded driver should be flagged: %+v", fs)
	}
	// A lightly loaded one passes.
	c2 := netlist.New("fast")
	c2.DeclarePort("y")
	addInv(c2, "u", "a", "y", 4, 8)
	c2.AddCap("y", 5)
	fs2, err := run("edge-rate", rec(t, c2), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs2) != 1 || fs2[0].Verdict != Pass {
		t.Errorf("light load should pass: %+v", fs2)
	}
}

func TestChargeShareVerdictScalesWithInternalCap(t *testing.T) {
	small, err := run("charge-share", rec(t, domino(false, 0)), opts())
	if err != nil {
		t.Fatal(err)
	}
	big, err := run("charge-share", rec(t, domino(false, 200)), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(small) == 0 || len(big) == 0 {
		t.Fatal("charge-share produced no findings")
	}
	if big[0].Margin >= small[0].Margin {
		t.Errorf("more internal cap must reduce margin: %g vs %g", big[0].Margin, small[0].Margin)
	}
	if big[0].Verdict != Violation {
		t.Errorf("200 fF internal cap on a small dynamic node must violate: %+v", big[0])
	}
}

func TestDynamicLeakageKeeperPasses(t *testing.T) {
	withKeeper, err := run("dynamic-leakage", rec(t, domino(true, 0)), opts())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range withKeeper {
		if f.Verdict == Pass && strings.Contains(f.Detail, "keeper") {
			found = true
		}
	}
	if !found {
		t.Errorf("keeper should pass leakage check: %+v", withKeeper)
	}
}

func TestDynamicLeakageLowVtWorse(t *testing.T) {
	base := domino(false, 0)
	fsBase, err := run("dynamic-leakage", rec(t, base), Options{Proc: process.CMOS035LP(), PeriodPS: 6250})
	if err != nil {
		t.Fatal(err)
	}
	leaky := domino(false, 0)
	for _, d := range leaky.Devices {
		d.Vt = process.LowVt
	}
	fsLeaky, err := run("dynamic-leakage", rec(t, leaky), Options{Proc: process.CMOS035LP(), PeriodPS: 6250})
	if err != nil {
		t.Fatal(err)
	}
	if len(fsBase) == 0 || len(fsLeaky) == 0 {
		t.Fatal("no leakage findings")
	}
	if fsLeaky[0].Margin >= fsBase[0].Margin {
		t.Errorf("low-Vt tree must have less hold margin: %g vs %g", fsLeaky[0].Margin, fsBase[0].Margin)
	}
}

func TestCouplingStaticVsDynamicThreshold(t *testing.T) {
	c := domino(false, 0)
	c.DeclarePort("static_victim")
	addInv(c, "vic", "a", "static_victim", 2, 4)
	// Equalize grounded load so only the restoring-drive distinction
	// (dynamic vs static victim) differs.
	c.AddCap("dyn", 100)
	c.AddCap("static_victim", 100)
	o := opts()
	o.Couplings = []Coupling{
		{Victim: "dyn", Aggressor: "bus1", CapFF: 8},
		{Victim: "static_victim", Aggressor: "bus1", CapFF: 8},
	}
	fs, err := run("coupling", rec(t, c), o)
	if err != nil {
		t.Fatal(err)
	}
	var dynM, statM float64
	var got int
	for _, f := range fs {
		switch f.Subject {
		case "dyn":
			dynM = f.Margin
			got++
		case "static_victim":
			statM = f.Margin
			got++
		}
	}
	if got != 2 {
		t.Fatalf("expected 2 coupling findings, got %+v", fs)
	}
	if dynM >= statM {
		t.Errorf("same coupling must hurt the dynamic node more: dyn %g vs static %g", dynM, statM)
	}
}

func TestLatchCheckClockedAndKeeper(t *testing.T) {
	c := netlist.New("mix")
	// Clocked latch.
	c.NMOS("pass_n", "phi1", "d", "m", 4, 0.75)
	c.PMOS("pass_p", "phi1n", "d", "m", 4, 0.75)
	addInv(c, "fwd", "m", "q", 2, 4)
	addInv(c, "fb", "q", "m", 1, 2)
	// Unclocked keeper.
	addInv(c, "k1", "s1", "s2", 2, 4)
	addInv(c, "k2", "s2", "s1", 2, 4)
	c.DeclarePort("d")
	fs, err := run("latch", rec(t, c), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("want 2 latch findings, got %+v", fs)
	}
	for _, f := range fs {
		if f.Verdict != Pass {
			t.Errorf("both latches should pass: %+v", f)
		}
	}
}

func TestWritabilityWeakWriteFlagged(t *testing.T) {
	build := func(wpass float64) *netlist.Circuit {
		c := netlist.New("lat")
		c.DeclarePort("d")
		c.NMOS("pass_n", "phi1", "d", "m", wpass, 0.75)
		c.PMOS("pass_p", "phi1n", "d", "m", wpass, 0.75)
		addInv(c, "fwd", "m", "q", 2, 4)
		addInv(c, "fb", "q", "m", 4, 8) // strong keeper
		return c
	}
	fsWeak, err := run("writability", rec(t, build(1)), opts())
	if err != nil {
		t.Fatal(err)
	}
	fsStrong, err := run("writability", rec(t, build(20)), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fsWeak) != 1 || fsWeak[0].Verdict == Pass {
		t.Errorf("weak write vs strong keeper must be flagged: %+v", fsWeak)
	}
	if len(fsStrong) != 1 || fsStrong[0].Verdict != Pass {
		t.Errorf("strong write should pass: %+v", fsStrong)
	}
}

func TestClockRCBudget(t *testing.T) {
	c := domino(false, 0)
	// Load the clock heavily through a resistive spine.
	c.AddResistor("rclk", "phi1", "clkload", 3000)
	c.AddCap("phi1", 500)
	fs, err := run("clock-rc", rec(t, c), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) == 0 {
		t.Fatal("no clock-rc findings")
	}
	var flagged bool
	for _, f := range fs {
		if f.Subject == "phi1" && f.Verdict != Pass {
			flagged = true
		}
	}
	if !flagged {
		t.Errorf("heavy clock RC should be flagged: %+v", fs)
	}
}

func TestElectromigrationWidthAttribute(t *testing.T) {
	c := netlist.New("em")
	c.DeclarePort("y")
	addInv(c, "u", "a", "y", 40, 0.75)
	c.AddCap("y", 70000) // 70 pF bus at 200 MHz
	o := opts()
	fs, err := run("electromigration", rec(t, c), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Verdict == Pass {
		t.Errorf("min-width wire at 70 pF should be flagged: %+v", fs)
	}
	// Widening the wire fixes it.
	c.SetAttr(c.FindNode("y"), "wire_width", "20")
	fs2, err := run("electromigration", rec(t, c), o)
	if err != nil {
		t.Fatal(err)
	}
	if fs2[0].Verdict != Pass {
		t.Errorf("20 µm wire should pass: %+v", fs2)
	}
}

func TestAntennaFromOptionsAndAttr(t *testing.T) {
	c := netlist.New("ant")
	c.DeclarePort("y")
	addInv(c, "u", "a", "y", 2, 4)
	c.SetAttr(c.FindNode("a"), "antenna", "900")
	o := opts()
	o.AntennaRatios = map[string]float64{"y": 100}
	fs, err := run("antenna", rec(t, c), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("want 2 antenna findings, got %+v", fs)
	}
	byNode := map[string]Verdict{}
	for _, f := range fs {
		byNode[f.Subject] = f.Verdict
	}
	if byNode["y"] != Pass {
		t.Errorf("ratio 100 should pass: %v", byNode["y"])
	}
	if byNode["a"] != Violation {
		t.Errorf("ratio 900 (limit 400) should violate: %v", byNode["a"])
	}
}

// TestCouplingAntennaOrderDeterministic: extraction data reaches the
// battery as a coupling list and an antenna-ratio map, and neither the
// order of the findings they raise nor their "#n" ID suffixes may follow
// map iteration order. The couplings are Figure 3's.
func TestCouplingAntennaOrderDeterministic(t *testing.T) {
	r := rec(t, designs.DominoAdder(8))
	o := opts()
	o.Couplings = []Coupling{
		{Victim: "mc3_dyn", Aggressor: "bus_a", CapFF: 6},
		{Victim: "mc5_dyn", Aggressor: "bus_b", CapFF: 3},
		{Victim: "s4", Aggressor: "bus_a", CapFF: 6},
	}
	o.AntennaRatios = map[string]float64{"s6": 900, "c2": 300, "mc1_dyn": 450}
	first, err := runAll(r, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		rep, err := runAll(r, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Findings, first.Findings) {
			t.Fatalf("run %d: findings differ from run 0", i)
		}
	}
	// Run keeps the passes too, so it sees every coupling and antenna
	// finding.
	for _, check := range []string{"coupling", "antenna"} {
		fs, err := run(check, r, o)
		if err != nil {
			t.Fatal(err)
		}
		prev := netlist.NodeID(-1)
		for _, f := range fs {
			id := r.Circuit.FindNode(f.Subject)
			if id <= prev {
				t.Errorf("%s finding on %s (node %d) follows node %d: want node order", check, f.Subject, id, prev)
			}
			prev = id
		}
		if len(fs) != 3 {
			t.Errorf("want 3 %s findings, got %d", check, len(fs))
		}
	}
}

func TestHotCarrierFlagsSubminimumLength(t *testing.T) {
	c := netlist.New("hc")
	c.DeclarePort("y")
	c.NMOS("mshort", "a", "vss", "y", 4, 0.5) // below 0.75 Lmin
	c.PMOS("mok", "a", "vdd", "y", 8, 0.75)
	fs, err := run("hot-carrier", rec(t, c), opts())
	if err != nil {
		t.Fatal(err)
	}
	var short *Finding
	for i := range fs {
		if fs[i].Subject == "mshort" {
			short = &fs[i]
		}
	}
	if short == nil || short.Verdict == Pass {
		t.Errorf("sub-minimum channel must be flagged: %+v", fs)
	}
}

func TestVerdictStringAndMargins(t *testing.T) {
	if Pass.String() != "pass" || Inspect.String() != "inspect" || Violation.String() != "violation" {
		t.Error("verdict strings wrong")
	}
	if verdictFromMargin(0.5, 0.3) != Pass {
		t.Error("margin above threshold should pass")
	}
	if verdictFromMargin(0.1, 0.3) != Inspect {
		t.Error("low positive margin should inspect")
	}
	if verdictFromMargin(-0.1, 0.3) != Violation {
		t.Error("negative margin should violate")
	}
}

func TestCleanDesignMostlyPasses(t *testing.T) {
	// A well-sized static design should overwhelmingly auto-pass —
	// the filtering claim of §2.3.
	c := netlist.New("clean")
	c.DeclarePort("a")
	prev := "a"
	for i := 0; i < 10; i++ {
		next := prev + "x"
		addInv(c, "u"+next, prev, next, 2, 5)
		prev = next
	}
	c.DeclarePort(prev)
	rep, err := runAll(rec(t, c), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations()) != 0 {
		t.Errorf("clean design has violations: %+v", rep.Violations())
	}
	if fe := rep.FilterEffectiveness(); fe < 0.9 {
		t.Errorf("filter effectiveness %g, want ≥0.9 on clean design\n%s", fe, rep.Summary())
	}
}

func TestSupplyDifferenceCheck(t *testing.T) {
	// Driver inverter in a sagging IO domain feeding a core receiver.
	c := netlist.New("domains")
	c.DeclarePort("y")
	addInv(c, "drv", "a", "m", 2, 4)
	addInv(c, "rcv", "m", "y", 2, 4)
	c.SetAttr(c.FindNode("a"), "supply_domain", "io")
	o := opts()
	// Without IR-drop data the check is silent.
	fs, err := run("supply-difference", rec(t, c), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("no-extraction run should be silent: %+v", fs)
	}
	// A 150 mV sag in the driver's domain erodes the receiver's margin.
	o.SupplyDropMV = map[string]float64{"io": 150, "": 0}
	fs, err = run("supply-difference", rec(t, c), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) == 0 {
		t.Fatal("cross-domain crossing not reported")
	}
	if fs[0].Verdict == Violation {
		t.Errorf("150 mV sag on a static receiver should not violate: %+v", fs[0])
	}
	// A 700 mV sag (past Vt) violates.
	o.SupplyDropMV = map[string]float64{"io": 700, "": 0}
	fs, _ = run("supply-difference", rec(t, c), o)
	if len(fs) == 0 || fs[0].Verdict != Violation {
		t.Errorf("700 mV sag should violate: %+v", fs)
	}
}

func TestParticleCheck(t *testing.T) {
	// A small dynamic node is SER-vulnerable; adding capacitance or a
	// hardening credit fixes it.
	c := domino(false, 0)
	fs, err := run("particle", rec(t, c), opts())
	if err != nil {
		t.Fatal(err)
	}
	var dyn *Finding
	for i := range fs {
		if fs[i].Subject == "dyn" {
			dyn = &fs[i]
		}
	}
	if dyn == nil {
		t.Fatalf("no particle finding for the dynamic node: %+v", fs)
	}
	if dyn.Verdict == Pass {
		t.Errorf("small dynamic node should not pass SER: %+v", dyn)
	}
	// More capacitance raises Qcrit.
	c2 := domino(false, 0)
	c2.AddCap("dyn", 100)
	fs2, _ := run("particle", rec(t, c2), opts())
	for _, f := range fs2 {
		if f.Subject == "dyn" && f.Verdict != Pass {
			t.Errorf("100 fF node should pass SER: %+v", f)
		}
	}
	// Statically driven outputs are not victims.
	for _, f := range fs {
		if f.Subject == "out" {
			t.Errorf("driven node reported as SER victim: %+v", f)
		}
	}
}
