package power

import (
	"math"
	"strings"
	"testing"

	"repro/internal/process"
)

func TestChipSpecsValidate(t *testing.T) {
	for _, c := range []*ChipSpec{ALPHA21064(), StrongARM110(), ALPHA21164(), fixup21264(ALPHA21264())} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	muts := []func(*ChipSpec){
		func(c *ChipSpec) { c.Proc = nil },
		func(c *ChipSpec) { c.FreqMHz = 0 },
		func(c *ChipSpec) { c.GateEquivalents = 0 },
		func(c *ChipSpec) { c.ActivityFactor = 0 },
		func(c *ChipSpec) { c.ActivityFactor = 1.5 },
		func(c *ChipSpec) { c.ClockLoadFactor = -1 },
	}
	for i, m := range muts {
		c := ALPHA21064()
		m(c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestALPHA21064HitsPublishedPower(t *testing.T) {
	// §3: "3.45v, Power = 26W".
	got := ALPHA21064().DynamicW()
	if math.Abs(got-26) > 26*0.08 {
		t.Errorf("ALPHA 21064 dynamic power = %.2f W, want ≈26 W", got)
	}
}

func TestStrongARMHitsPublishedPower(t *testing.T) {
	// §3: "close to the realized value of 450mW" / "160MHz while
	// burning only 500mW".
	got := StrongARM110().DynamicW()
	if got < 0.40 || got > 0.55 {
		t.Errorf("StrongARM dynamic power = %.3f W, want 0.40–0.55 W", got)
	}
}

func TestTable1WalkFactors(t *testing.T) {
	steps, err := Table1Walk(ALPHA21064(), StrongARM110())
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 6 {
		t.Fatalf("want 6 rows (start + 5 factors), got %d", len(steps))
	}
	// Each computed factor must land near the paper's value.
	wantClose := []struct {
		label string
		tol   float64
	}{
		{"VDD reduction", 0.15},
		{"Reduce functions", 0.01},
		{"Scale process", 0.25},
		{"Clock load", 0.08},
		{"Clock rate", 0.01},
	}
	for i, w := range wantClose {
		s := steps[i+1]
		if !strings.Contains(s.Label, strings.Split(w.label, " ")[0]) {
			t.Errorf("row %d label = %q, want %q", i+1, s.Label, w.label)
		}
		rel := math.Abs(s.Factor-s.PaperFactor) / s.PaperFactor
		if rel > w.tol {
			t.Errorf("%s: computed factor %.3f vs paper %.3g (rel err %.2f > %.2f)",
				w.label, s.Factor, s.PaperFactor, rel, w.tol)
		}
	}
	// Cumulative endpoint: ≈0.5 W (paper) / 0.45 W (realized).
	final := steps[len(steps)-1].PowerW
	if final < 0.40 || final > 0.60 {
		t.Errorf("walk endpoint %.3f W, want 0.40–0.60", final)
	}
	// Total factor ≈ 52×.
	if f := WalkTotalFactor(steps); f < 45 || f > 65 {
		t.Errorf("total reduction %.1f×, want ≈52×", f)
	}
	// And the walk endpoint must be consistent with the direct CV²f
	// computation of the StrongARM spec (the model is self-consistent,
	// not two unrelated formulas).
	direct := StrongARM110().DynamicW()
	if math.Abs(final-direct)/direct > 0.02 {
		t.Errorf("walk endpoint %.3f vs direct model %.3f diverge", final, direct)
	}
}

func TestFormatWalkShowsRows(t *testing.T) {
	steps, err := Table1Walk(ALPHA21064(), StrongARM110())
	if err != nil {
		t.Fatal(err)
	}
	s := FormatWalk(steps)
	for _, want := range []string{"VDD reduction", "Reduce functions", "Scale process", "Clock load", "Clock rate", "paper: 26W"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted walk missing %q:\n%s", want, s)
		}
	}
}

func TestTable1WalkValidates(t *testing.T) {
	bad := ALPHA21064()
	bad.FreqMHz = 0
	if _, err := Table1Walk(bad, StrongARM110()); err == nil {
		t.Error("invalid source spec accepted")
	}
	if _, err := Table1Walk(ALPHA21064(), &ChipSpec{Name: "x"}); err == nil {
		t.Error("invalid target spec accepted")
	}
}

func TestLeakageSweepReproducesS2(t *testing.T) {
	// §3: unlengthened low-Vt leakage busts the 20 mW standby spec in
	// the fast corner; the 0.045/0.09 µm pulls bring it under.
	chip := StrongARM110()
	pts := LeakageSweep(chip, []string{"cache", "pads"}, []float64{0, 0.045, 0.09})
	at := func(dl float64, c process.Corner) LeakagePoint {
		for _, p := range pts {
			if p.ExtraLUM == dl && p.Corner == c {
				return p
			}
		}
		t.Fatalf("missing point %g/%v", dl, c)
		return LeakagePoint{}
	}
	if p := at(0, process.Fast); p.MeetsSpec {
		t.Errorf("unlengthened fast-corner leakage %.1f mW should bust the %g mW spec", p.LeakageMW, StandbySpecMW)
	}
	if p := at(0.045, process.Fast); !p.MeetsSpec {
		t.Errorf("0.045 µm lengthening should just meet spec: %.1f mW", p.LeakageMW)
	}
	if p := at(0.09, process.Fast); !p.MeetsSpec || p.LeakageMW > 10 {
		t.Errorf("0.09 µm lengthening should meet spec comfortably: %.1f mW", p.LeakageMW)
	}
	// Monotonic in ΔL at every corner; fast worst everywhere.
	for _, c := range process.Corners {
		if !(at(0, c).LeakageMW > at(0.045, c).LeakageMW && at(0.045, c).LeakageMW > at(0.09, c).LeakageMW) {
			t.Errorf("leakage not monotone in ΔL at %v", c)
		}
	}
	for _, dl := range []float64{0, 0.045, 0.09} {
		if !(at(dl, process.Fast).LeakageMW > at(dl, process.Typical).LeakageMW) {
			t.Errorf("fast corner should leak most at ΔL=%g", dl)
		}
	}
}

func TestWithExtraLDoesNotMutate(t *testing.T) {
	chip := StrongARM110()
	_ = chip.WithExtraL([]string{"cache"}, 0.09)
	for _, r := range chip.Regions {
		if r.ExtraLUM != 0 {
			t.Errorf("WithExtraL mutated the original: %+v", r)
		}
	}
	v := chip.WithExtraL([]string{"cache", "nonexistent"}, 0.09)
	found := false
	for _, r := range v.Regions {
		if r.Name == "cache" && r.ExtraLUM == 0.09 {
			found = true
		}
	}
	if !found {
		t.Error("WithExtraL did not apply to cache")
	}
}

func TestGenerationsTableScalingClaims(t *testing.T) {
	rows := GenerationsTable()
	if len(rows) != 4 {
		t.Fatalf("want 4 generations, got %d", len(rows))
	}
	byName := map[string]PerfWattRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	a64 := byName["alpha21064"]
	a164 := byName["alpha21164"]
	a264 := byName["alpha21264"]
	sa := byName["strongarm110"]

	// "The next generation of ALPHA chips delivered more than four
	// times that performance level at about the same power."
	if a164.VsFirstGen < 4 {
		t.Errorf("21164 perf vs 21064 = %.1f×, want >4×", a164.VsFirstGen)
	}
	if a164.PowerW > a64.PowerW*1.4 || a164.PowerW < a64.PowerW*0.6 {
		t.Errorf("21164 power %.1f W should be near 21064's %.1f W", a164.PowerW, a64.PowerW)
	}
	// "The latest ALPHA CPU delivers more than 8X the performance level
	// at about twice the power."
	if a264.VsFirstGen < 8 {
		t.Errorf("21264 perf = %.1f×, want >8×", a264.VsFirstGen)
	}
	if r := a264.PowerW / a64.PowerW; r < 1.6 || r > 2.6 {
		t.Errorf("21264 power ratio %.2f×, want ≈2×", r)
	}
	// StrongARM is the perf/W champion by a wide margin (ref [1]:
	// "highest performance per Watt").
	for _, r := range []PerfWattRow{a64, a164, a264} {
		if sa.PerfPerW < 10*r.PerfPerW {
			t.Errorf("StrongARM perf/W %.2f should dwarf %s's %.3f", sa.PerfPerW, r.Name, r.PerfPerW)
		}
	}
}

func TestNodeCapScalesWithProcess(t *testing.T) {
	a := ALPHA21064().NodeCapFF()
	s := StrongARM110().NodeCapFF()
	if ratio := a / s; ratio < 1.7 || ratio > 2.5 {
		t.Errorf("process cap scaling %.2f×, want ≈2× (Table 1's process factor)", ratio)
	}
}
