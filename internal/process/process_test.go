package process

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuiltinProcessesValidate(t *testing.T) {
	for _, p := range []*Process{CMOS075(), CMOS050(), CMOS035LP()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"cmos075", "cmos050", "cmos035lp"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := ByName("cmos013"); err == nil {
		t.Error("ByName(unknown) should fail")
	} else if !strings.Contains(err.Error(), "cmos075") {
		t.Errorf("error should list known processes, got %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Process)
	}{
		{"empty name", func(p *Process) { p.Name = "" }},
		{"zero Lmin", func(p *Process) { p.Lmin = 0 }},
		{"zero Vdd", func(p *Process) { p.Vdd = 0 }},
		{"zero VtN", func(p *Process) { p.VtN = 0 }},
		{"Vt above Vdd", func(p *Process) { p.VtN = p.Vdd + 1 }},
		{"zero KPn", func(p *Process) { p.KPn = 0 }},
		{"PMOS stronger than NMOS", func(p *Process) { p.KPp = p.KPn * 2 }},
		{"impossible swing", func(p *Process) { p.SubthresholdSwing = 40 }},
		{"negative leakage", func(p *Process) { p.Ioff0 = -1 }},
	}
	for _, c := range cases {
		p := CMOS075()
		c.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid process", c.name)
		}
	}
}

func TestVtCornerOrdering(t *testing.T) {
	p := CMOS035LP()
	for _, dt := range []DeviceType{NMOS, PMOS} {
		fast := p.Vt(dt, StandardVt, Fast)
		typ := p.Vt(dt, StandardVt, Typical)
		slow := p.Vt(dt, StandardVt, Slow)
		if !(fast < typ && typ < slow) {
			t.Errorf("%v: Vt ordering fast(%g) < typ(%g) < slow(%g) violated", dt, fast, typ, slow)
		}
	}
}

func TestVtClassOrdering(t *testing.T) {
	p := CMOS035LP()
	lvt := p.Vt(NMOS, LowVt, Typical)
	svt := p.Vt(NMOS, StandardVt, Typical)
	hvt := p.Vt(NMOS, HighVt, Typical)
	if !(lvt < svt && svt < hvt) {
		t.Errorf("Vt class ordering lvt(%g) < svt(%g) < hvt(%g) violated", lvt, svt, hvt)
	}
}

func TestIdsatScalesWithGeometry(t *testing.T) {
	p := CMOS075()
	base := p.Idsat(NMOS, StandardVt, 2, p.Lmin, Typical)
	if base <= 0 {
		t.Fatalf("Idsat = %g, want positive", base)
	}
	double := p.Idsat(NMOS, StandardVt, 4, p.Lmin, Typical)
	if math.Abs(double/base-2) > 1e-9 {
		t.Errorf("doubling W should double Idsat: %g vs %g", double, base)
	}
	long := p.Idsat(NMOS, StandardVt, 2, 2*p.Lmin, Typical)
	if math.Abs(long/base-0.5) > 1e-9 {
		t.Errorf("doubling L should halve Idsat: %g vs %g", long, base)
	}
}

func TestIdsatZeroWhenVtExceedsVdd(t *testing.T) {
	p := CMOS075()
	p.VtN = p.Vdd + 0.5 // force an off device (Validate would reject; bypass it)
	if got := p.Idsat(NMOS, StandardVt, 2, p.Lmin, Typical); got != 0 {
		t.Errorf("Idsat with Vt > Vdd = %g, want 0", got)
	}
}

func TestReffCornerOrdering(t *testing.T) {
	p := CMOS075()
	fast := p.Reff(NMOS, StandardVt, 2, p.Lmin, Fast)
	typ := p.Reff(NMOS, StandardVt, 2, p.Lmin, Typical)
	slow := p.Reff(NMOS, StandardVt, 2, p.Lmin, Slow)
	if !(fast < typ && typ < slow) {
		t.Errorf("Reff ordering fast(%g) < typ(%g) < slow(%g) violated", fast, typ, slow)
	}
}

func TestReffInfiniteForDeadDevice(t *testing.T) {
	p := CMOS075()
	p.VtN = p.Vdd + 1
	if r := p.Reff(NMOS, StandardVt, 2, p.Lmin, Typical); !math.IsInf(r, 1) {
		t.Errorf("Reff of non-conducting device = %g, want +Inf", r)
	}
}

func TestPMOSWeakerThanNMOS(t *testing.T) {
	p := CMOS075()
	rn := p.Reff(NMOS, StandardVt, 2, p.Lmin, Typical)
	rp := p.Reff(PMOS, StandardVt, 2, p.Lmin, Typical)
	if rp <= rn {
		t.Errorf("equal-size PMOS should be more resistive: Rp=%g Rn=%g", rp, rn)
	}
}

func TestLeakageLowVtExceedsStandard(t *testing.T) {
	p := CMOS035LP()
	lvt := p.IleakUA(NMOS, LowVt, 10, 0, Typical)
	svt := p.IleakUA(NMOS, StandardVt, 10, 0, Typical)
	if lvt <= svt {
		t.Errorf("low-Vt leakage (%g) should exceed standard-Vt (%g)", lvt, svt)
	}
}

func TestLeakageFastCornerWorst(t *testing.T) {
	p := CMOS035LP()
	fast := p.IleakUA(NMOS, LowVt, 10, 0, Fast)
	typ := p.IleakUA(NMOS, LowVt, 10, 0, Typical)
	slow := p.IleakUA(NMOS, LowVt, 10, 0, Slow)
	if !(fast > typ && typ > slow) {
		t.Errorf("leakage ordering fast(%g) > typ(%g) > slow(%g) violated", fast, typ, slow)
	}
}

func TestLeakageChannelLengthening(t *testing.T) {
	// §3: lengthening by 0.045 or 0.09 µm cuts leakage enough to meet
	// the standby spec. Each increment must cut leakage by a large,
	// monotonic factor.
	p := CMOS035LP()
	l0 := p.IleakUA(NMOS, LowVt, 10, 0, Fast)
	l45 := p.IleakUA(NMOS, LowVt, 10, 0.045, Fast)
	l90 := p.IleakUA(NMOS, LowVt, 10, 0.09, Fast)
	if !(l0 > l45 && l45 > l90) {
		t.Fatalf("lengthening must reduce leakage monotonically: %g, %g, %g", l0, l45, l90)
	}
	if l0/l45 < 2 {
		t.Errorf("0.045 µm lengthening should cut leakage by ≥2×, got %.2f×", l0/l45)
	}
	ratio1, ratio2 := l0/l45, l45/l90
	if math.Abs(ratio1-ratio2)/ratio1 > 1e-6 {
		t.Errorf("leakage reduction should be exponential in ΔL: ratios %g vs %g", ratio1, ratio2)
	}
}

func TestFO4OrderingAcrossCorners(t *testing.T) {
	for _, p := range []*Process{CMOS075(), CMOS050(), CMOS035LP()} {
		fast := p.FO4ps(Fast)
		typ := p.FO4ps(Typical)
		slow := p.FO4ps(Slow)
		if !(fast < typ && typ < slow) {
			t.Errorf("%s: FO4 ordering fast(%g) < typ(%g) < slow(%g) violated", p.Name, fast, typ, slow)
		}
	}
}

func TestFO4ScalesWithProcess(t *testing.T) {
	// Newer processes must be faster: 0.35 µm < 0.5 µm < 0.75 µm FO4.
	f035 := CMOS035LP().FO4ps(Typical)
	f050 := CMOS050().FO4ps(Typical)
	f075 := CMOS075().FO4ps(Typical)
	if !(f035 < f050 && f050 < f075) {
		t.Errorf("FO4 should shrink with process: 0.35=%g 0.5=%g 0.75=%g", f035, f050, f075)
	}
}

func TestWireModels(t *testing.T) {
	p := CMOS075()
	if got := p.WireC(100); math.Abs(got-100*p.CwireFF) > 1e-12 {
		t.Errorf("WireC(100) = %g", got)
	}
}

func TestDeviceTypeAndCornerStrings(t *testing.T) {
	if NMOS.String() != "nmos" || PMOS.String() != "pmos" {
		t.Error("DeviceType.String mismatch")
	}
	if Typical.String() != "typical" || Fast.String() != "fast" || Slow.String() != "slow" {
		t.Error("Corner.String mismatch")
	}
	if StandardVt.String() != "svt" || LowVt.String() != "lvt" || HighVt.String() != "hvt" {
		t.Error("VtClass.String mismatch")
	}
	if DeviceType(99).String() == "" || Corner(99).String() == "" || VtClass(99).String() == "" {
		t.Error("out-of-range stringers should not be empty")
	}
}

// Property: Idsat is monotone nondecreasing in W and nonincreasing in L
// for any positive geometry.
func TestIdsatMonotoneProperty(t *testing.T) {
	p := CMOS075()
	f := func(w, l, dw, dl uint8) bool {
		wf := 0.5 + float64(w)/16 // [0.5, 16.4]
		lf := p.Lmin + float64(l)/64
		id := p.Idsat(NMOS, StandardVt, wf, lf, Typical)
		idW := p.Idsat(NMOS, StandardVt, wf+float64(dw)/16, lf, Typical)
		idL := p.Idsat(NMOS, StandardVt, wf, lf+float64(dl)/64, Typical)
		return idW >= id && idL <= id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: leakage is strictly decreasing in extra channel length.
func TestLeakageMonotoneProperty(t *testing.T) {
	p := CMOS035LP()
	f := func(e1, e2 uint8) bool {
		a, b := float64(e1)/1000, float64(e2)/1000
		if a > b {
			a, b = b, a
		}
		la := p.IleakUA(NMOS, LowVt, 10, a, Fast)
		lb := p.IleakUA(NMOS, LowVt, 10, b, Fast)
		return lb <= la
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
