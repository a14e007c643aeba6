package core

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checks"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/recognize"
	"repro/internal/timing"
)

func opts() Options {
	return Options{Proc: process.CMOS075()}
}

func TestVerifyCleanStaticDesign(t *testing.T) {
	rep, err := Verify(designs.InverterChain(10), opts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict == checks.Violation {
		t.Errorf("clean chain got violation verdict:\n%s", rep.Summary())
	}
	if len(rep.Timing.Races) != 0 {
		t.Error("combinational chain cannot race")
	}
	s := rep.Summary()
	for _, want := range []string{"CBV report", "recognition:", "checks:", "timing:"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestVerifyDominoAdder(t *testing.T) {
	rep, err := Verify(designs.DominoAdder(8), opts())
	if err != nil {
		t.Fatal(err)
	}
	// CBV handles the dynamic design: recognition names every group,
	// and the verdict is not driven by unknowns.
	if got := len(rep.Recognition.GroupsByFamily(recognize.FamilyUnknown)); got != 0 {
		t.Errorf("unknown groups = %d; %s", got, rep.Recognition.Summary())
	}
	if got := len(rep.Recognition.GroupsByFamily(recognize.FamilyDynamic)); got != 8 {
		t.Errorf("dynamic groups = %d, want 8", got)
	}
}

func TestVerifyFlagsRace(t *testing.T) {
	rep, err := Verify(designs.LatchPipeline(4, true), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Timing.Races) == 0 {
		t.Fatal("racy pipeline not flagged")
	}
	if rep.Verdict != checks.Violation {
		t.Errorf("verdict = %v, want violation", rep.Verdict)
	}
	clean, err := Verify(designs.LatchPipeline(4, false), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Timing.Races) != 0 {
		t.Error("clean two-phase pipeline flagged as racing")
	}
}

func TestVerifyRequiresProcess(t *testing.T) {
	if _, err := Verify(designs.InverterChain(2), Options{}); err == nil {
		t.Error("missing process accepted")
	}
}

func TestInspectLoadCountsNonPass(t *testing.T) {
	// A skewed inverter generates at least one non-pass finding.
	c := netlist.New("skew")
	c.DeclarePort("y")
	designs.AddInverter(c, "u", "a", "y", 20, 1)
	rep, err := Verify(c, opts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.InspectLoad == 0 {
		t.Error("skewed sizing should cost inspection effort")
	}
}

func TestCBCAcceptsLibraryStyle(t *testing.T) {
	rep, err := CheckCBC(designs.InverterChain(6), process.CMOS075())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepts() {
		t.Errorf("plain inverters rejected by CBC: %+v", rep.Rejections)
	}
	if rep.Accepted != 6 {
		t.Errorf("accepted = %d", rep.Accepted)
	}
}

func TestCBCRejectsFullCustomStyles(t *testing.T) {
	// The paper's core argument: CBC refuses what full-custom needs.
	cases := []struct {
		name string
		c    *netlist.Circuit
		want string
	}{
		{"domino", designs.DominoAdder(2), "dynamic"},
		{"passmux", designs.PassMux(4), "pass-transistor"},
	}
	for _, cse := range cases {
		rep, err := CheckCBC(cse.c, process.CMOS075())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Accepts() {
			t.Errorf("%s: CBC accepted a non-library design", cse.name)
			continue
		}
		found := false
		for _, r := range rep.Rejections {
			if strings.Contains(r.Reason, cse.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no rejection mentioning %q: %+v", cse.name, cse.want, rep.Rejections)
		}
	}
}

func TestCBCRejectsOversizedFanIn(t *testing.T) {
	// A legal 6-input complementary gate exceeds the library fan-in.
	c := netlist.New("and6ish")
	c.DeclarePort("y")
	prev := "y"
	for i := 0; i < 6; i++ {
		next := "m" + string(rune('0'+i))
		if i == 5 {
			next = "vss"
		}
		c.NMOS("n"+string(rune('0'+i)), "in"+string(rune('0'+i)), next, prev, 4, 0.75)
		prev = next
	}
	for i := 0; i < 6; i++ {
		c.PMOS("p"+string(rune('0'+i)), "in"+string(rune('0'+i)), "vdd", "y", 6, 0.75)
	}
	rep, err := CheckCBC(c, process.CMOS075())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepts() {
		t.Error("6-input gate should exceed the CBC library fan-in limit")
	}
}

func TestCompareMethodologies(t *testing.T) {
	// The ablation's shape: on the domino adder, CBV produces a
	// verdict with finite inspection load while CBC simply refuses.
	cmp, err := CompareMethodologies(designs.DominoAdder(4), opts())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.CBCAccepts {
		t.Error("CBC accepted domino logic")
	}
	if cmp.CBCRejected == 0 {
		t.Error("no CBC rejections counted")
	}
	if cmp.CBVVerdict == checks.Violation {
		t.Errorf("CBV should verify the working domino adder, got %v", cmp.CBVVerdict)
	}

	// And on library-style logic both methods agree.
	cmp2, err := CompareMethodologies(designs.InverterChain(4), opts())
	if err != nil {
		t.Fatal(err)
	}
	if !cmp2.CBCAccepts {
		t.Error("CBC rejected plain inverters")
	}
}

func TestReportCarriesResolvedClock(t *testing.T) {
	// Defaulted clock: the report must expose the spec actually used,
	// not the zero value the caller passed (cache keys depend on it).
	opt := opts()
	rep, err := Verify(designs.InverterChain(4), opt)
	if err != nil {
		t.Fatal(err)
	}
	want := timing.TwoPhase(1e6 / opt.Proc.ClockFreqMHz)
	if rep.Clock.PeriodPS != want.PeriodPS || len(rep.Clock.Phases) != len(want.Phases) {
		t.Errorf("defaulted Report.Clock = %+v, want %+v", rep.Clock, want)
	}
	if got := opt.ResolvedClock(); got.PeriodPS != want.PeriodPS {
		t.Errorf("ResolvedClock() period = %v, want %v", got.PeriodPS, want.PeriodPS)
	}

	// Explicit clock: passed through untouched, and the caller's Options
	// copy is not mutated either way.
	opt2 := opts()
	opt2.Clock = timing.SinglePhase(1234)
	rep2, err := Verify(designs.InverterChain(4), opt2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Clock.PeriodPS != 1234 {
		t.Errorf("explicit Report.Clock period = %v, want 1234", rep2.Clock.PeriodPS)
	}
	if opt2.Clock.PeriodPS != 1234 {
		t.Errorf("caller's Options mutated: %+v", opt2.Clock)
	}
}

// TestKeyCoversOptions ties Key to every Options field: each field has
// cases that either must move the key (the field can change an outcome)
// or must leave it alone (telemetry). A field added to Options without
// a case fails here, before the fleet cache can alias two
// configurations under one key.
func TestKeyCoversOptions(t *testing.T) {
	base := opts()
	def := base.ResolvedClock()
	edge := timing.TwoPhase(def.PeriodPS)
	ph := edge.Phases["phi2"]
	ph.ClosePS -= 10
	edge.Phases["phi2"] = ph
	type keyCase struct {
		name  string
		set   func(*Options)
		moves bool
	}
	cases := map[string][]keyCase{
		"Proc": {{"another process", func(o *Options) { o.Proc = process.CMOS050() }, true}},
		"Clock": {
			{"period", func(o *Options) { o.Clock = timing.TwoPhase(2 * def.PeriodPS) }, true},
			{"phase edge", func(o *Options) { o.Clock = edge }, true},
			{"spelled-out default", func(o *Options) { o.Clock = timing.TwoPhase(def.PeriodPS) }, false},
		},
		"Lint":        {{"gate on", func(o *Options) { o.Lint = true }, true}},
		"Trace":       {{"span", func(o *Options) { o.Trace = obs.New().Start("verify") }, false}},
		"Events":      {{"scope", func(o *Options) { o.Events = obs.NewEventSink(io.Discard).Scope("item") }, false}},
		"PprofLabels": {{"labels on", func(o *Options) { o.PprofLabels = true }, false}},
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; cases[name] == nil {
			t.Errorf("Options.%s has no case: decide whether it can change a verification outcome and extend Key or this table", name)
		}
	}
	if len(cases) != typ.NumField() {
		t.Errorf("%d cases for %d Options fields: drop the cases of removed fields", len(cases), typ.NumField())
	}
	want := base.Key()
	for field, cs := range cases {
		for _, c := range cs {
			o := base
			c.set(&o)
			if moved := o.Key() != want; moved != c.moves {
				t.Errorf("%s (%s): key moved = %v, want %v\nbase %s\ngot  %s", field, c.name, moved, c.moves, want, o.Key())
			}
		}
	}
}
