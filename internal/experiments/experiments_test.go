package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestTable1Shape(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Steps) != 6 {
		t.Fatalf("steps = %d", len(r.Steps))
	}
	if r.TotalFactor < 45 || r.TotalFactor > 65 {
		t.Errorf("total factor %.1f outside the paper's ~52x band", r.TotalFactor)
	}
	if r.FinalW < 0.4 || r.FinalW > 0.6 {
		t.Errorf("final power %.2f W outside 0.4–0.6", r.FinalW)
	}
	// Each factor is within tolerance of the paper's printed value.
	for _, s := range r.Steps[1:] {
		rel := math.Abs(s.Factor-s.PaperFactor) / s.PaperFactor
		if rel > 0.25 {
			t.Errorf("%s: factor %.2f vs paper %.2f (rel %.2f)", s.Label, s.Factor, s.PaperFactor, rel)
		}
	}
	if !strings.Contains(r.Report, "VDD reduction") {
		t.Error("report missing walk rows")
	}
}

func TestFigure1Shape(t *testing.T) {
	r, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if r.Overlap.Aligned() {
		t.Error("the Figure 1 hierarchies must not align")
	}
	if r.Overlap.MaxFragmentation() != 3 {
		t.Errorf("the paper's schematic #2 spans all 3 RTL blocks, got %d", r.Overlap.MaxFragmentation())
	}
}

func TestFigure2Shape(t *testing.T) {
	r, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.Iterations < 2 {
		t.Error("feedback edges must force multiple passes")
	}
	if r.Result.Executions("behavioral-rtl") < 2 {
		t.Error("feasibility feedback must re-run the RTL step")
	}
	if r.Result.Executions("tapeout") < 1 {
		t.Error("flow never reached tapeout")
	}
}

func TestFigure3Shape(t *testing.T) {
	r, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"coupling", "charge-share", "dynamic-leakage"} {
		if r.PerSource[src].Findings == 0 {
			t.Errorf("source %s produced no findings", src)
		}
	}
	// The injected bus coupling onto a small dynamic node must erode
	// margin below the clean case.
	if r.PerSource["coupling"].WorstMargin >= 1 {
		t.Error("coupling margins suspiciously perfect")
	}
}

func TestFigure4Shape(t *testing.T) {
	r, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if r.CleanRaces != 0 {
		t.Errorf("clean pipeline races = %d", r.CleanRaces)
	}
	if r.RacyRaces == 0 {
		t.Error("racy pipeline produced no races")
	}
	if r.CriticalPS <= 0 || r.MinPeriodPS <= 0 {
		t.Error("degenerate adder timing")
	}
}

func TestFigure5Shape(t *testing.T) {
	r, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 3 {
		t.Fatal("too few rows")
	}
	for _, row := range r.Rows {
		if row.ErrPS <= 0 {
			t.Errorf("%d fingers: lumped model should underestimate (err %.1f ps)", row.Fingers, row.ErrPS)
		}
	}
}

func TestS2Shape(t *testing.T) {
	r, err := S2()
	if err != nil {
		t.Fatal(err)
	}
	var fail0, pass90 bool
	for _, p := range r.Points {
		if p.ExtraLUM == 0 && p.Corner.String() == "fast" && !p.MeetsSpec {
			fail0 = true
		}
		if p.ExtraLUM == 0.09 && p.Corner.String() == "fast" && p.MeetsSpec {
			pass90 = true
		}
	}
	if !fail0 || !pass90 {
		t.Errorf("S2 shape broken:\n%s", r.Report)
	}
}

func TestS3Shape(t *testing.T) {
	r, err := S3()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Result.Equivalent {
		t.Error("counter vs ring must be equivalent")
	}
}

func TestS5Shape(t *testing.T) {
	r, err := S5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerDesign) != 5 {
		t.Fatalf("designs = %d", len(r.PerDesign))
	}
	if r.FilterEffectiveness < 0.8 {
		t.Errorf("aggregate filter effectiveness %.2f below 0.8:\n%s", r.FilterEffectiveness, r.Report)
	}
	if !strings.Contains(r.Report, "REJECTS") {
		t.Error("CBC should reject at least one full-custom design")
	}
}

func TestS6Shape(t *testing.T) {
	r, err := S6()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 3 {
		t.Fatal("too few pessimism samples")
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.BoundWidthPS <= first.BoundWidthPS {
		t.Error("bound width must grow with pessimism")
	}
	if last.MinPeriodPS <= first.MinPeriodPS {
		t.Error("min period must inflate with pessimism")
	}
	if last.RacesFlagged < first.RacesFlagged {
		t.Error("race coverage must not shrink with pessimism")
	}
	if last.FalseSetupHits < first.FalseSetupHits {
		t.Error("false setup violations must not shrink with pessimism")
	}
	if last.FalseSetupHits == 0 {
		t.Error("high pessimism at an 8%-margined clock should produce false setup hits")
	}
}

// S1 and S4 are timing-sensitive; keep the assertions loose but real.
func TestS1AndS4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	s1, err := S1()
	if err != nil {
		t.Fatal(err)
	}
	if s1.CyclesPerSec < 200 {
		t.Errorf("FCL throughput %.0f cyc/s below the paper's 200", s1.CyclesPerSec)
	}
	if s1.CPUsAtPaperRate < 100 || s1.CPUsAtPaperRate > 120 {
		t.Errorf("paper-rate CPU count %.0f should be ≈116 (2e9/200/86400)", s1.CPUsAtPaperRate)
	}
	if s1.CPUsAtOurRate >= s1.CPUsAtPaperRate {
		t.Error("our rate must beat the paper's")
	}

	s4, err := S4()
	if err != nil {
		t.Fatal(err)
	}
	if len(s4.Rows) < 3 {
		t.Fatal("too few CAM sizes")
	}
	// The expansion's cost relative to the primitive grows with port
	// count, and at 2048 ports it is substantial. Cost is each design's
	// per-cycle evaluation work, its assign count, which is
	// deterministic; the wall-clock slowdown is left to the report.
	lastRow := s4.Rows[len(s4.Rows)-1]
	if lastRow.Depth != 2048 {
		t.Fatalf("last depth = %d", lastRow.Depth)
	}
	slowdown := func(r S4Row) float64 {
		return float64(r.ExpandedAssignCount) / float64(r.NativeAssignCount)
	}
	for i, row := range s4.Rows {
		if row.NativeAssignCount <= 0 || row.NativeAssignCount != s4.Rows[0].NativeAssignCount {
			t.Errorf("%d ports: native assign count %d, want the same nonzero count at every size", row.Depth, row.NativeAssignCount)
		}
		if i > 0 && slowdown(row) <= slowdown(s4.Rows[i-1]) {
			t.Errorf("slowdown must grow with port count: %.0fx at %d ports, %.0fx at %d",
				slowdown(row), row.Depth, slowdown(s4.Rows[i-1]), s4.Rows[i-1].Depth)
		}
	}
	if slowdown(lastRow) < 4 {
		t.Errorf("2048-port expansion slowdown %.1fx too small:\n%s", slowdown(lastRow), s4.Report)
	}
}

func TestAllRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full battery")
	}
	var sb strings.Builder
	for _, e := range List {
		out, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		sb.WriteString(out)
	}
	out := sb.String()
	for _, want := range []string{"Table 1", "Figure 1", "Figure 2", "Figure 3",
		"Figure 4", "Figure 5", "S1", "S2", "S3", "S4", "S5", "S6"} {
		if !strings.Contains(out, want) {
			t.Errorf("reports missing %q", want)
		}
	}
}

func TestA1Shape(t *testing.T) {
	r, err := A1()
	if err != nil {
		t.Fatal(err)
	}
	if r.UngatedFactor != 0 {
		t.Errorf("always-clocked gating factor = %.2f, want 0", r.UngatedFactor)
	}
	if r.GatedFactor <= 0.1 {
		t.Errorf("conditional clocking should gate >10%% of commits, got %.2f", r.GatedFactor)
	}
	if r.ClockPowerMW.Gated >= r.ClockPowerMW.Ungated {
		t.Error("gating must save clock power")
	}
	if r.SavingPct <= 0 {
		t.Error("saving percentage must be positive")
	}
}

func TestA2Shape(t *testing.T) {
	r, err := A2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var cbcRejectsAny, cbcAcceptsLibrary bool
	for _, row := range r.Rows {
		if !row.CBCAccepts {
			cbcRejectsAny = true
		}
		if row.Design == "invchain8" && row.CBCAccepts {
			cbcAcceptsLibrary = true
		}
	}
	if !cbcRejectsAny || !cbcAcceptsLibrary {
		t.Errorf("A2 shape wrong:\n%s", r.Report)
	}
}
