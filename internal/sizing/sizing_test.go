package sizing

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/process"
)

// nand2 and nor2 are two-input gate stages: g = 4/3 and 5/3, p = 2.
func nand2(name string) Stage { return Stage{Name: name, G: 4.0 / 3, P: 2, Branch: 1} }
func nor2(name string) Stage  { return Stage{Name: name, G: 5.0 / 3, P: 2, Branch: 1} }

// pathDelay is the delay in τ units of stages with the given input caps,
// optimal or not: the oracle SizePath's sizing is checked against.
func pathDelay(stages []Stage, cinFF []float64, loadFF float64) float64 {
	d := 0.0
	for i, s := range stages {
		cout := loadFF
		if i+1 < len(cinFF) {
			cout = cinFF[i+1]
		}
		d += s.G*s.Branch*cout/cinFF[i] + s.P
	}
	return d
}

func TestSizePathTextbookExample(t *testing.T) {
	// Classic: 3 inverters, H = 64 → ρ = 4, sizes 1, 4, 16 (×Cin).
	stages := []Stage{Inverter("a"), Inverter("b"), Inverter("c")}
	res, err := SizePath(stages, 1, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.StageEffort-4) > 1e-9 {
		t.Errorf("stage effort = %g, want 4", res.StageEffort)
	}
	want := []float64{1, 4, 16}
	for i, w := range want {
		if math.Abs(res.CinFF[i]-w) > 1e-9 {
			t.Errorf("Cin[%d] = %g, want %g", i, res.CinFF[i], w)
		}
	}
	// Delay = 3·4 + 3·1 = 15 τ.
	if math.Abs(res.DelayUnits-15) > 1e-9 {
		t.Errorf("delay = %g τ, want 15", res.DelayUnits)
	}
}

func TestSizePathWithLogicAndBranching(t *testing.T) {
	// NAND2 → NOR2 → INV with branch 2 on the first two stages.
	stages := []Stage{nand2("n1"), nor2("n2"), Inverter("i")}
	stages[0].Branch = 2
	stages[1].Branch = 2
	res, err := SizePath(stages, 2, 100, process.CMOS075())
	if err != nil {
		t.Fatal(err)
	}
	g := (4.0 / 3) * (5.0 / 3) * 1
	b := 4.0
	h := 50.0
	if math.Abs(res.PathEffort-g*b*h) > 1e-9 {
		t.Errorf("path effort = %g, want %g", res.PathEffort, g*b*h)
	}
	// First stage's input cap must equal the pinned cin.
	if math.Abs(res.CinFF[0]-2) > 1e-6 {
		t.Errorf("Cin[0] = %g, want the pinned 2", res.CinFF[0])
	}
	if res.DelayPS <= 0 {
		t.Error("process-scaled delay should be positive")
	}
}

func TestSizePathErrors(t *testing.T) {
	if _, err := SizePath(nil, 1, 10, nil); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := SizePath([]Stage{Inverter("a")}, 0, 10, nil); err == nil {
		t.Error("zero cin accepted")
	}
	if _, err := SizePath([]Stage{{G: -1, P: 1, Branch: 1}}, 1, 10, nil); err == nil {
		t.Error("negative g accepted")
	}
	if _, err := SizePath([]Stage{{G: 1, P: 1, Branch: 0.5}}, 1, 10, nil); err == nil {
		t.Error("branch < 1 accepted")
	}
}

func TestOptimalStageCount(t *testing.T) {
	cases := map[float64]int{
		1: 1, 3: 1, 4: 1, 16: 2, 64: 3, 256: 4, 1024: 5,
	}
	for f, want := range cases {
		if got := OptimalStageCount(f); got != want {
			t.Errorf("OptimalStageCount(%g) = %d, want %d", f, got, want)
		}
	}
}

func TestBufferChainParity(t *testing.T) {
	res, err := BufferChain(1, 1000, 0, process.CMOS075())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages)%2 != 0 {
		t.Errorf("even parity requested, got %d stages", len(res.Stages))
	}
	res, err = BufferChain(1, 1000, 1, process.CMOS075())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages)%2 != 1 {
		t.Errorf("odd parity requested, got %d stages", len(res.Stages))
	}
	if _, err := BufferChain(0, 10, -1, nil); err == nil {
		t.Error("zero cin accepted")
	}
}

func TestOptimizerBeatsNaiveSizing(t *testing.T) {
	// The equal-effort solution must beat an arbitrary hand sizing of
	// the same path.
	stages := []Stage{Inverter("a"), nand2("b"), Inverter("c"), nor2("d")}
	res, err := SizePath(stages, 2, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive := []float64{2, 4, 8, 16} // plausible but unoptimized
	naiveDelay := pathDelay(stages, naive, 300)
	optDelay := pathDelay(stages, res.CinFF, 300)
	if optDelay > naiveDelay {
		t.Errorf("optimizer (%.2f τ) worse than naive (%.2f τ)", optDelay, naiveDelay)
	}
	if math.Abs(optDelay-res.DelayUnits) > 1e-6 {
		t.Errorf("pathDelay (%g) disagrees with SizePath (%g)", optDelay, res.DelayUnits)
	}
}

// Property: the equal-effort sizing is a local minimum — perturbing any
// single intermediate stage's cap never reduces delay.
func TestEqualEffortIsLocalMinimumProperty(t *testing.T) {
	stages := []Stage{Inverter("a"), nand2("b"), Inverter("c")}
	res, err := SizePath(stages, 1, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := pathDelay(stages, res.CinFF, 200)
	f := func(stageRaw uint8, pct int8) bool {
		i := 1 + int(stageRaw)%(len(stages)-1) // never perturb the pinned input
		scale := 1 + float64(pct)/400          // ±32%
		if scale <= 0 {
			return true
		}
		mod := append([]float64(nil), res.CinFF...)
		mod[i] *= scale
		return pathDelay(stages, mod, 200) >= base-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWidthsFromCin(t *testing.T) {
	p := process.CMOS075()
	wn, wp := WidthsFromCin([]float64{3, 12}, p)
	if len(wn) != 2 || len(wp) != 2 {
		t.Fatal("length mismatch")
	}
	for i := range wn {
		if math.Abs(wp[i]/wn[i]-2) > 1e-9 {
			t.Errorf("P:N ratio at %d = %g, want 2", i, wp[i]/wn[i])
		}
	}
	if wn[1]/wn[0] < 3.9 || wn[1]/wn[0] > 4.1 {
		t.Errorf("width scaling should track cap scaling: %g", wn[1]/wn[0])
	}
}
