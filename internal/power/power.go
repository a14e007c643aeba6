// Package power models chip-level power dissipation for the §3
// experiments of the paper.
//
// The paper's low-power story is quantitative in exactly two places, and
// this package reproduces both:
//
//   - Table 1, the ALPHA 21064 → StrongARM power walk: "Starting with a
//     200MHz 21064 in 0.75 technology, factoring in VDD, functionality
//     differences, process scaling, clock loading and frequency, we end
//     up with a power dissipation close to the realized value of 450mW."
//     (26 W → ÷5.3 VDD → ÷3 functions → ÷2 process → ÷1.3 clock load →
//     ÷1.25 clock rate → ≈0.5 W.)
//
//   - The standby-leakage budget: low-Vt devices leak; "devices in the
//     cache arrays, the pad drivers, and certain other areas were
//     lengthened by 0.045µm or 0.09µm", bringing leakage "below the 20mW
//     specification in the fastest process corner".
//
// The model is a plain CV²f dynamic term over an average-node
// capacitance derived from the process, plus the process package's
// subthreshold leakage integrated over per-region device width.
package power

import (
	"fmt"

	"repro/internal/process"
)

// Region is a population of devices sharing Vt class and channel
// lengthening, for leakage accounting ("the cache arrays, the pad
// drivers, and certain other areas").
type Region struct {
	// Name identifies the region ("cache", "pads", "core"...).
	Name string
	// WidthUM is the total NMOS-equivalent device width in µm.
	WidthUM float64
	// Vt is the devices' threshold class.
	Vt process.VtClass
	// ExtraLUM is the §3 channel lengthening in µm.
	ExtraLUM float64
}

// ChipSpec describes a chip for the power model.
type ChipSpec struct {
	// Name identifies the chip.
	Name string
	// Proc is the fabrication process.
	Proc *process.Process
	// FreqMHz is the operating clock frequency.
	FreqMHz float64
	// GateEquivalents counts switching nodes (≈ transistor count); the
	// "reduce functions" factor of Table 1 is a ratio of these.
	GateEquivalents float64
	// ActivityFactor is the average fraction of nodes switching per
	// cycle.
	ActivityFactor float64
	// ClockLoadFactor is clock-network capacitance as a fraction of
	// switched logic capacitance (conditional clocking reduces it).
	ClockLoadFactor float64
	// PerfRel is relative performance (Cray-1 ≈ 1) for perf/W tables.
	PerfRel float64
	// Regions is the leakage inventory.
	Regions []Region
}

// NodeCapFF returns the model's average switched capacitance per gate
// equivalent: three unit-gate loads plus a wire whose length scales with
// the process pitch. This single formula is what produces Table 1's
// "process scaling" factor from the two process descriptions.
func (c *ChipSpec) NodeCapFF() float64 {
	p := c.Proc
	return 3*p.CgateFF(4*p.Lmin, p.Lmin) + p.WireC(30*p.Lmin)
}

// DynamicW returns dynamic power in watts: Ceff·V²·f with
// Ceff = GE·nodeCap·AF·(1+clockLoad).
func (c *ChipSpec) DynamicW() float64 {
	ceffF := c.GateEquivalents * c.NodeCapFF() * 1e-15 *
		c.ActivityFactor * (1 + c.ClockLoadFactor)
	return ceffF * c.Proc.Vdd * c.Proc.Vdd * c.FreqMHz * 1e6
}

// LeakageMW returns standby leakage in milliwatts at a corner, summed
// over regions.
func (c *ChipSpec) LeakageMW(corner process.Corner) float64 {
	var ua float64
	for _, r := range c.Regions {
		ua += c.Proc.IleakUA(process.NMOS, r.Vt, r.WidthUM, r.ExtraLUM, corner)
	}
	return ua * c.Proc.Vdd * 1e-3 // µA·V = µW → mW
}

// TotalW returns dynamic plus leakage power in watts.
func (c *ChipSpec) TotalW(corner process.Corner) float64 {
	return c.DynamicW() + c.LeakageMW(corner)*1e-3
}

// WithExtraL returns a copy with the named regions' channel lengthening
// set to extraL µm (the §3 sweep knob). Unknown names are ignored.
func (c *ChipSpec) WithExtraL(regionNames []string, extraL float64) *ChipSpec {
	out := *c
	out.Regions = append([]Region(nil), c.Regions...)
	for i := range out.Regions {
		for _, n := range regionNames {
			if out.Regions[i].Name == n {
				out.Regions[i].ExtraLUM = extraL
			}
		}
	}
	return &out
}

// Validate checks the spec.
func (c *ChipSpec) Validate() error {
	switch {
	case c.Proc == nil:
		return fmt.Errorf("power: %s: missing process", c.Name)
	case c.FreqMHz <= 0:
		return fmt.Errorf("power: %s: frequency must be positive", c.Name)
	case c.GateEquivalents <= 0:
		return fmt.Errorf("power: %s: gate equivalents must be positive", c.Name)
	case c.ActivityFactor <= 0 || c.ActivityFactor > 1:
		return fmt.Errorf("power: %s: activity factor %g out of (0,1]", c.Name, c.ActivityFactor)
	case c.ClockLoadFactor < 0:
		return fmt.Errorf("power: %s: negative clock load", c.Name)
	}
	return c.Proc.Validate()
}

// ALPHA21064 returns the model of the 200 MHz, 3.45 V, 26 W first-
// generation ALPHA (ref [2] of the paper).
func ALPHA21064() *ChipSpec {
	return &ChipSpec{
		Name:            "alpha21064",
		Proc:            process.CMOS075(),
		FreqMHz:         200,
		GateEquivalents: 1.68e6, // published transistor count
		ActivityFactor:  0.19,
		ClockLoadFactor: 0.65, // the 21064's single-node 3 nF clock
		PerfRel:         1.0,  // "the raw performance of a Cray-1"
		Regions: []Region{
			{Name: "core", WidthUM: 2.0e6, Vt: process.StandardVt},
			{Name: "cache", WidthUM: 1.5e6, Vt: process.StandardVt},
			{Name: "pads", WidthUM: 0.2e6, Vt: process.StandardVt},
		},
	}
}

// StrongARM110 returns the model of the 160 MHz, 1.5 V, ~450 mW SA-110
// (ref [1]). Its regions are low-Vt and initially UNlengthened — the S2
// experiment applies the 0.045/0.09 µm pulls to cache and pads.
func StrongARM110() *ChipSpec {
	return &ChipSpec{
		Name:            "strongarm110",
		Proc:            process.CMOS035LP(),
		FreqMHz:         160,
		GateEquivalents: 1.68e6 / 3, // "Reduce functions: power reduction = 3x"
		ActivityFactor:  0.19,
		ClockLoadFactor: 0.27, // conditional clocking + single-phase
		PerfRel:         1.0,  // "Cray-1 class performance to battery-powered"
		Regions: []Region{
			// The speed-critical core keeps standard-Vt devices at
			// drawn length; the wide cache arrays and pad drivers are
			// low-Vt and are the lengthening targets of §3.
			{Name: "core", WidthUM: 0.3e6, Vt: process.StandardVt},
			{Name: "cache", WidthUM: 0.85e6, Vt: process.LowVt},
			{Name: "pads", WidthUM: 0.15e6, Vt: process.LowVt},
		},
	}
}

// ALPHA21164 models ref [3]: "more than four times that performance
// level at about the same power" (433 MHz quad-issue, 0.5 µm).
func ALPHA21164() *ChipSpec {
	return &ChipSpec{
		Name:            "alpha21164",
		Proc:            process.CMOS050(),
		FreqMHz:         433,
		GateEquivalents: 3.0e6,
		ActivityFactor:  0.10,
		ClockLoadFactor: 0.55,
		PerfRel:         4.4,
		Regions: []Region{
			{Name: "core", WidthUM: 3.5e6, Vt: process.StandardVt},
			{Name: "cache", WidthUM: 4.0e6, Vt: process.StandardVt},
			{Name: "pads", WidthUM: 0.3e6, Vt: process.StandardVt},
		},
	}
}

// ALPHA21264 models ref [4]: "more than 8X the performance level at
// about twice the power" (600 MHz out-of-order).
func ALPHA21264() *ChipSpec {
	return &ChipSpec{
		Name:            "alpha21264",
		Proc:            process.CMOS035LP(), // 0.35 µm generation, higher Vdd variant
		FreqMHz:         600,
		GateEquivalents: 6.0e6,
		ActivityFactor:  0.21,
		ClockLoadFactor: 0.50,
		PerfRel:         8.3,
		Regions: []Region{
			{Name: "core", WidthUM: 6.0e6, Vt: process.StandardVt},
			{Name: "cache", WidthUM: 6.0e6, Vt: process.StandardVt},
			{Name: "pads", WidthUM: 0.4e6, Vt: process.StandardVt},
		},
	}
}

// fixup21264 swaps in the 21264's high-performance 0.35 µm process
// variant (2.2 V supply, mid-range thresholds) on a private copy.
func fixup21264(c *ChipSpec) *ChipSpec {
	p := *c.Proc
	p.Name = "cmos035hp"
	p.Vdd = 2.2
	p.VtN, p.VtP = 0.45, 0.5
	c.Proc = &p
	return c
}

// WalkStep is one row of the Table 1 reproduction.
type WalkStep struct {
	// Label names the reduction ("VDD reduction").
	Label string
	// Factor is the computed power-reduction factor.
	Factor float64
	// PowerW is the cumulative power after applying the factor.
	PowerW float64
	// PaperFactor and PaperPowerW are the values printed in Table 1.
	PaperFactor, PaperPowerW float64
}

// Table1Walk reproduces Table 1: starting from the first chip's dynamic
// power, it applies the five factor reductions computed from the two
// chip specifications (not hard-coded) and returns the walk.
func Table1Walk(from, to *ChipSpec) ([]WalkStep, error) {
	if err := from.Validate(); err != nil {
		return nil, err
	}
	if err := to.Validate(); err != nil {
		return nil, err
	}
	power := from.DynamicW()
	steps := []WalkStep{{
		Label:  fmt.Sprintf("%s: %.4gv, %.0f MHz", from.Name, from.Proc.Vdd, from.FreqMHz),
		Factor: 1, PowerW: power, PaperFactor: 1, PaperPowerW: 26,
	}}
	apply := func(label string, factor, paperFactor, paperPower float64) {
		power /= factor
		steps = append(steps, WalkStep{label, factor, power, paperFactor, paperPower})
	}
	fVdd := (from.Proc.Vdd * from.Proc.Vdd) / (to.Proc.Vdd * to.Proc.Vdd)
	apply("VDD reduction", fVdd, 5.3, 4.9)
	fFunc := from.GateEquivalents / to.GateEquivalents
	apply("Reduce functions", fFunc, 3.0, 1.6)
	fProc := from.NodeCapFF() / to.NodeCapFF()
	apply("Scale process", fProc, 2.0, 0.8)
	fClock := (1 + from.ClockLoadFactor) / (1 + to.ClockLoadFactor)
	apply("Clock load", fClock, 1.3, 0.6)
	fRate := from.FreqMHz / to.FreqMHz
	apply("Clock rate", fRate, 1.25, 0.5)
	return steps, nil
}

// WalkTotalFactor returns the product of all factors in a walk.
func WalkTotalFactor(steps []WalkStep) float64 {
	f := 1.0
	for _, s := range steps {
		f *= s.Factor
	}
	return f
}

// FormatWalk renders the walk as the paper's Table 1 rows.
func FormatWalk(steps []WalkStep) string {
	out := ""
	for i, s := range steps {
		if i == 0 {
			out += fmt.Sprintf("Starting with %s: Power = %.1fW (paper: 26W)\n", s.Label, s.PowerW)
			continue
		}
		out += fmt.Sprintf("%-18s power reduction = %.2fx -> %.2fW   (paper: %.4gx -> %.1fW)\n",
			s.Label+":", s.Factor, s.PowerW, s.PaperFactor, s.PaperPowerW)
	}
	return out
}

// LeakageSweep evaluates standby leakage of a chip across channel
// lengthening values and corners — the S2 experiment. Regions named in
// lengthened get each ExtraL value; others stay at their spec.
type LeakagePoint struct {
	ExtraLUM  float64
	Corner    process.Corner
	LeakageMW float64
	MeetsSpec bool
}

// StandbySpecMW is the paper's standby budget: "below the 20mW
// specification in the fastest process corner."
const StandbySpecMW = 20.0

// LeakageSweep runs the lengthening × corner sweep.
func LeakageSweep(chip *ChipSpec, lengthened []string, extraLs []float64) []LeakagePoint {
	var out []LeakagePoint
	for _, dl := range extraLs {
		variant := chip.WithExtraL(lengthened, dl)
		for _, corner := range process.Corners {
			mw := variant.LeakageMW(corner)
			out = append(out, LeakagePoint{
				ExtraLUM:  dl,
				Corner:    corner,
				LeakageMW: mw,
				MeetsSpec: mw < StandbySpecMW,
			})
		}
	}
	return out
}

// PerfWattRow is one row of the generations table (§3's scaling claims).
type PerfWattRow struct {
	Name       string
	FreqMHz    float64
	PowerW     float64
	PerfRel    float64
	PerfPerW   float64
	VsFirstGen float64 // performance relative to the 21064
}

// GenerationsTable summarizes the §3 scaling story across the four chips.
func GenerationsTable() []PerfWattRow {
	chips := []*ChipSpec{ALPHA21064(), ALPHA21164(), fixup21264(ALPHA21264()), StrongARM110()}
	base := chips[0].PerfRel
	var rows []PerfWattRow
	for _, c := range chips {
		w := c.TotalW(process.Typical)
		rows = append(rows, PerfWattRow{
			Name:       c.Name,
			FreqMHz:    c.FreqMHz,
			PowerW:     w,
			PerfRel:    c.PerfRel,
			PerfPerW:   c.PerfRel / w,
			VsFirstGen: c.PerfRel / base,
		})
	}
	return rows
}
