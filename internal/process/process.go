// Package process models CMOS fabrication processes for the full-custom
// verification toolkit.
//
// The paper's tools consume extracted device and interconnect parameters;
// since the Digital Semiconductor processes are proprietary, this package
// provides parametric process descriptions calibrated to the numbers the
// paper publishes (a 0.75 µm, 3.45 V process for the ALPHA 21064 and a
// 0.35 µm, 1.5 V low-threshold process for the StrongARM SA-110).
//
// Everything downstream — timing, checks, power — consumes only the
// Process interface values here, so swapping a real foundry deck in would
// be a drop-in change.
package process

import (
	"fmt"
	"math"
)

// DeviceType distinguishes the two MOS device polarities.
type DeviceType int

const (
	// NMOS is an n-channel device (pulls its drain toward ground).
	NMOS DeviceType = iota
	// PMOS is a p-channel device (pulls its drain toward Vdd).
	PMOS
)

// String returns "nmos" or "pmos".
func (d DeviceType) String() string {
	switch d {
	case NMOS:
		return "nmos"
	case PMOS:
		return "pmos"
	default:
		return fmt.Sprintf("DeviceType(%d)", int(d))
	}
}

// Corner selects a manufacturing/environment corner for analysis.
//
// The paper (§4.3) stresses bounding min/max behaviour across
// manufacturing tolerances; every electrical query below accepts a Corner.
type Corner int

const (
	// Typical is the nominal process point.
	Typical Corner = iota
	// Fast is the fast-silicon corner: low Vt, high mobility, thin oxide.
	// Fast silicon maximizes leakage (§3: the 20 mW standby spec is
	// checked "in the fastest process corner") and minimizes delay,
	// so it is the corner that exposes races.
	Fast
	// Slow is the slow-silicon corner: high Vt, low mobility. It
	// maximizes delay, so it is the corner that exposes critical paths.
	Slow
)

// String returns the lowercase corner name.
func (c Corner) String() string {
	switch c {
	case Typical:
		return "typical"
	case Fast:
		return "fast"
	case Slow:
		return "slow"
	default:
		return fmt.Sprintf("Corner(%d)", int(c))
	}
}

// Corners lists all corners in a stable order, for sweeps.
var Corners = []Corner{Typical, Fast, Slow}

// VtClass selects a threshold-voltage flavour. Low-Vt devices are fast
// but leaky; the StrongARM process is predominantly low-Vt (§3).
type VtClass int

const (
	// StandardVt is the nominal threshold device.
	StandardVt VtClass = iota
	// LowVt is the low-threshold, high-leakage device used for speed.
	LowVt
	// HighVt is a high-threshold, low-leakage device (used here to
	// model the lengthened/slowed devices in cache arrays and pads).
	HighVt
)

// String returns the class name.
func (v VtClass) String() string {
	switch v {
	case StandardVt:
		return "svt"
	case LowVt:
		return "lvt"
	case HighVt:
		return "hvt"
	default:
		return fmt.Sprintf("VtClass(%d)", int(v))
	}
}

// Process is a parametric CMOS process description. All geometric values
// are in micrometres (µm); voltages in volts; capacitances in femtofarads;
// resistances in ohms; currents in microamps unless noted.
type Process struct {
	// Name identifies the process (e.g. "cmos075").
	Name string
	// Lmin is the minimum drawn channel length in µm.
	Lmin float64
	// Vdd is the nominal supply voltage in volts.
	Vdd float64
	// VtN and VtP are the nominal (standard-Vt) threshold magnitudes
	// in volts for NMOS and PMOS devices.
	VtN, VtP float64
	// LowVtDelta is subtracted from |Vt| for LowVt devices; HighVtDelta
	// is added for HighVt devices.
	LowVtDelta, HighVtDelta float64
	// KPn and KPp are the process transconductances k' = µ·Cox in
	// µA/V² for NMOS and PMOS.
	KPn, KPp float64
	// CoxFF is the gate-oxide capacitance in fF per µm².
	CoxFF float64
	// CjFF is the source/drain junction capacitance in fF per µm of
	// device width.
	CjFF float64
	// CwireFF is wire capacitance to substrate in fF per µm of length
	// for a minimum-width mid-level metal wire.
	CwireFF float64
	// CcoupleFF is nominal sidewall coupling capacitance in fF per µm
	// of parallel run to an adjacent minimum-spaced wire.
	CcoupleFF float64
	// RwireOhm is wire resistance in Ω per µm of length for a
	// minimum-width mid-level metal wire.
	RwireOhm float64
	// SubthresholdSwing is the subthreshold slope in mV/decade.
	SubthresholdSwing float64
	// Ioff0 is the off-state leakage in µA per µm of width for a
	// minimum-length standard-Vt NMOS at Vgs=0, Vds=Vdd, typical corner.
	Ioff0 float64
	// LeakLengthFactor is the per-µm-of-extra-channel-length decades of
	// leakage reduction: lengthening a device by ΔL µm divides leakage
	// by 10^(LeakLengthFactor·ΔL). §3: devices "were lengthened by
	// 0.045µm or 0.09µm" to cut standby current.
	LeakLengthFactor float64
	// JmaxMA is the electromigration current-density limit in
	// mA per µm of wire width (time-averaged).
	JmaxMA float64
	// AntennaMaxRatio is the maximum allowed metal-area to gate-area
	// antenna ratio before plasma charging damage.
	AntennaMaxRatio float64
	// ClockFreqMHz is the nominal clock target used by flow-level
	// calculations (a design parameter recorded with the process here
	// because the paper quotes process+frequency pairs).
	ClockFreqMHz float64
}

// cornerScale returns (vtShift, kScale) for a corner: fast silicon has
// lower Vt and higher transconductance; slow the reverse. The ±10%/±60 mV
// spreads are typical of the era's published worst-case design practice.
func cornerScale(c Corner) (vtShift, kScale float64) {
	switch c {
	case Fast:
		return -0.06, 1.10
	case Slow:
		return +0.06, 0.90
	default:
		return 0, 1.0
	}
}

// Vt returns the threshold voltage magnitude in volts for a device of the
// given type and Vt class at the given corner.
func (p *Process) Vt(t DeviceType, class VtClass, c Corner) float64 {
	vt := p.VtN
	if t == PMOS {
		vt = p.VtP
	}
	switch class {
	case LowVt:
		vt -= p.LowVtDelta
	case HighVt:
		vt += p.HighVtDelta
	}
	shift, _ := cornerScale(c)
	vt += shift
	if vt < 0.05 {
		vt = 0.05
	}
	return vt
}

// KP returns the transconductance k' in µA/V² for the device type at the
// corner.
func (p *Process) KP(t DeviceType, c Corner) float64 {
	k := p.KPn
	if t == PMOS {
		k = p.KPp
	}
	_, scale := cornerScale(c)
	return k * scale
}

// Idsat returns the saturation drain current in µA of a device with the
// given geometry at full gate drive (Vgs = Vdd), using the long-channel
// square law. W and L are in µm.
func (p *Process) Idsat(t DeviceType, class VtClass, w, l float64, c Corner) float64 {
	vt := p.Vt(t, class, c)
	vgs := p.Vdd
	if vgs <= vt {
		return 0
	}
	kp := p.KP(t, c)
	return 0.5 * kp * (w / l) * (vgs - vt) * (vgs - vt)
}

// Reff returns the effective switching resistance in Ω of a device with
// the given geometry: the resistance that reproduces the device's average
// current over an output transition. This is the "simplified transistor
// timing model" of §4.3 — delay models "sacrifice accuracy for simulation
// efficiency" but are bounded per corner.
func (p *Process) Reff(t DeviceType, class VtClass, w, l float64, c Corner) float64 {
	id := p.Idsat(t, class, w, l, c) // µA
	if id <= 0 {
		return math.Inf(1)
	}
	// R ≈ (3/4)·Vdd/Idsat for a half-swing average, expressed in Ω
	// (volts / microamps = MΩ, so scale by 1e6).
	return 0.75 * p.Vdd / id * 1e6
}

// CgateFF returns the gate capacitance in fF of a device of width w and
// length l (both µm), including a fixed overlap allowance.
func (p *Process) CgateFF(w, l float64) float64 {
	const overlapFrac = 0.2
	return p.CoxFF * w * l * (1 + overlapFrac)
}

// CdiffFF returns the source/drain diffusion capacitance in fF for a
// device of width w µm.
func (p *Process) CdiffFF(w float64) float64 {
	return p.CjFF * w
}

// IleakUA returns the subthreshold (off-state) leakage in µA of a device
// at Vgs=0, Vds=Vdd. extraL is additional drawn channel length in µm
// beyond Lmin (the §3 lengthening knob). Leakage scales exponentially
// with Vt through the subthreshold swing and is divided by
// 10^(LeakLengthFactor·extraL) for lengthened devices.
func (p *Process) IleakUA(t DeviceType, class VtClass, w, extraL float64, c Corner) float64 {
	vtNom := p.Vt(t, StandardVt, Typical)
	vt := p.Vt(t, class, c)
	// Ioff0 is specified at nominal standard Vt; shift by the Vt delta
	// through the subthreshold swing (decades per volt = 1000/swing).
	decadesPerVolt := 1000.0 / p.SubthresholdSwing
	decades := (vtNom - vt) * decadesPerVolt
	// Channel-length lengthening: §3's 0.045/0.09 µm pulls.
	decades -= p.LeakLengthFactor * extraL
	i := p.Ioff0 * w * math.Pow(10, decades)
	// PMOS leakage is lower by the mobility ratio.
	if t == PMOS {
		i *= p.KPp / p.KPn
	}
	return i
}

// WireC returns the total capacitance in fF of a wire of length µm,
// excluding coupling to neighbours.
func (p *Process) WireC(length float64) float64 {
	return p.CwireFF * length
}

// FO4ps returns the fanout-of-4 inverter delay in picoseconds at the
// given corner — the canonical speed metric for a process. It is computed
// from the Reff/Cgate models so it tracks any parameter change.
func (p *Process) FO4ps(c Corner) float64 {
	// Reference inverter: NMOS W=2·Lmin, PMOS W=4·Lmin at L=Lmin.
	wn := 2 * p.Lmin
	wp := 4 * p.Lmin
	rn := p.Reff(NMOS, StandardVt, wn, p.Lmin, c)
	rp := p.Reff(PMOS, StandardVt, wp, p.Lmin, c)
	r := (rn + rp) / 2
	cin := p.CgateFF(wn, p.Lmin) + p.CgateFF(wp, p.Lmin)
	cself := p.CdiffFF(wn) + p.CdiffFF(wp)
	// Delay = 0.69·R·(Cself + 4·Cin); R in Ω, C in fF → ps·1e-3, so
	// Ω·fF = 1e-15·s·1e0... Ω·fF = 1e-15 s = 1e-3 ps.
	return 0.69 * r * (cself + 4*cin) * 1e-3
}

// Validate checks that the process description is physically sensible.
func (p *Process) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("process: missing name")
	case p.Lmin <= 0:
		return fmt.Errorf("process %s: Lmin must be positive, got %g", p.Name, p.Lmin)
	case p.Vdd <= 0:
		return fmt.Errorf("process %s: Vdd must be positive, got %g", p.Name, p.Vdd)
	case p.VtN <= 0 || p.VtP <= 0:
		return fmt.Errorf("process %s: thresholds must be positive (VtN=%g VtP=%g)", p.Name, p.VtN, p.VtP)
	case p.VtN >= p.Vdd || p.VtP >= p.Vdd:
		return fmt.Errorf("process %s: thresholds must be below Vdd", p.Name)
	case p.KPn <= 0 || p.KPp <= 0:
		return fmt.Errorf("process %s: transconductances must be positive", p.Name)
	case p.KPp > p.KPn:
		return fmt.Errorf("process %s: PMOS k' (%g) should not exceed NMOS k' (%g)", p.Name, p.KPp, p.KPn)
	case p.SubthresholdSwing < 60:
		return fmt.Errorf("process %s: subthreshold swing %g mV/dec below the 60 mV/dec room-temperature limit", p.Name, p.SubthresholdSwing)
	case p.Ioff0 < 0:
		return fmt.Errorf("process %s: negative leakage", p.Name)
	}
	return nil
}

// CMOS075 returns the 0.75 µm, 3.45 V process model standing in for the
// ALPHA 21064 process (§3: "Starting with a 200MHz 21064 in 0.75
// technology … 3.45v, Power = 26W").
func CMOS075() *Process {
	return &Process{
		Name:              "cmos075",
		Lmin:              0.75,
		Vdd:               3.45,
		VtN:               0.7,
		VtP:               0.8,
		LowVtDelta:        0.15,
		HighVtDelta:       0.15,
		KPn:               60,
		KPp:               25,
		CoxFF:             2.0,
		CjFF:              1.2,
		CwireFF:           0.20,
		CcoupleFF:         0.06,
		RwireOhm:          0.07,
		SubthresholdSwing: 90,
		Ioff0:             1e-5,
		LeakLengthFactor:  12,
		JmaxMA:            1.0,
		AntennaMaxRatio:   400,
		ClockFreqMHz:      200,
	}
}

// CMOS035LP returns the 0.35 µm, 1.5 V low-power/low-threshold process
// model standing in for the StrongARM SA-110 process (§3: "a low-supply
// voltage and low-threshold device is essential … 160MHz while burning
// only 500mW", with leakage brought "below the 20mW specification in the
// fastest process corner" by channel lengthening).
func CMOS035LP() *Process {
	return &Process{
		Name:              "cmos035lp",
		Lmin:              0.35,
		Vdd:               1.5,
		VtN:               0.35,
		VtP:               0.40,
		LowVtDelta:        0.12,
		HighVtDelta:       0.12,
		KPn:               260,
		KPp:               105,
		CoxFF:             4.0,
		CjFF:              1.0,
		CwireFF:           0.23,
		CcoupleFF:         0.09,
		RwireOhm:          0.12,
		SubthresholdSwing: 85,
		Ioff0:             4e-4,
		LeakLengthFactor:  14,
		JmaxMA:            1.2,
		AntennaMaxRatio:   400,
		ClockFreqMHz:      160,
	}
}

// CMOS050 returns a 0.5 µm, 3.3 V process standing in for the ALPHA 21164
// generation (ref [3]: 433 MHz quad-issue).
func CMOS050() *Process {
	return &Process{
		Name:              "cmos050",
		Lmin:              0.5,
		Vdd:               3.3,
		VtN:               0.6,
		VtP:               0.7,
		LowVtDelta:        0.15,
		HighVtDelta:       0.15,
		KPn:               100,
		KPp:               40,
		CoxFF:             2.7,
		CjFF:              1.1,
		CwireFF:           0.21,
		CcoupleFF:         0.07,
		RwireOhm:          0.09,
		SubthresholdSwing: 88,
		Ioff0:             5e-5,
		LeakLengthFactor:  13,
		JmaxMA:            1.1,
		AntennaMaxRatio:   400,
		ClockFreqMHz:      433,
	}
}

// ByName returns a built-in process by name, or an error listing the
// known names.
func ByName(name string) (*Process, error) {
	switch name {
	case "cmos075":
		return CMOS075(), nil
	case "cmos050":
		return CMOS050(), nil
	case "cmos035lp":
		return CMOS035LP(), nil
	}
	return nil, fmt.Errorf("process: unknown process %q (known: cmos075, cmos050, cmos035lp)", name)
}
