package netlist

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/process"
)

const sampleDeck = `
* sample deck
.subckt inv a y
mn y a vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
.ends

.subckt nand2 a b y
mn1 y a mid vss nmos w=4 l=0.75
mn2 mid b vss vss nmos w=4 l=0.75
mp1 y a vdd vdd pmos w=4 l=0.75
mp2 y b vdd vdd pmos w=4 l=0.75
.ends

x1 in n1 inv
x2 n1 n2 x3out nand2
cload n2 vss 10f
rwire n2 n3 150
*attr in clock=phi1
`

func TestParseBasics(t *testing.T) {
	lib, top, err := Parse(strings.NewReader(sampleDeck))
	if err != nil {
		t.Fatal(err)
	}
	if got := lib.Cells(); len(got) != 2 || got[0] != "inv" || got[1] != "nand2" {
		t.Fatalf("cells = %v", got)
	}
	invC := lib.Cell("inv")
	if len(invC.Devices) != 2 {
		t.Errorf("inv devices = %d", len(invC.Devices))
	}
	if len(invC.Ports) != 2 {
		t.Errorf("inv ports = %d", len(invC.Ports))
	}
	// SPICE terminal order M d g s b.
	mn := invC.Devices[0]
	if invC.NodeName(mn.Drain) != "y" || invC.NodeName(mn.Gate) != "a" || invC.NodeName(mn.Source) != "vss" {
		t.Errorf("terminal order wrong: d=%s g=%s s=%s",
			invC.NodeName(mn.Drain), invC.NodeName(mn.Gate), invC.NodeName(mn.Source))
	}
	if mn.Type != process.NMOS || mn.W != 2 || mn.L != 0.75 {
		t.Errorf("device params: %+v", mn)
	}

	if len(top.Instances) != 2 {
		t.Errorf("top instances = %d", len(top.Instances))
	}
	if top.Instances[1].Cell != "nand2" || len(top.Instances[1].Conns) != 3 {
		t.Errorf("instance parse: %+v", top.Instances[1])
	}
	n2 := top.FindNode("n2")
	if math.Abs(top.Nodes[n2].CapFF-10) > 1e-9 {
		t.Errorf("cload = %g fF, want 10", top.Nodes[n2].CapFF)
	}
	if len(top.Resistors) != 1 || top.Resistors[0].Ohms != 150 {
		t.Errorf("resistor parse: %+v", top.Resistors)
	}
	in := top.FindNode("in")
	if top.Nodes[in].Attrs["clock"] != "phi1" {
		t.Error("*attr annotation lost")
	}
}

func TestParseContinuationLines(t *testing.T) {
	deck := "m1 y a\n+ vss vss nmos\n+ w=2 l=0.75\n"
	_, top, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Devices) != 1 || top.Devices[0].W != 2 {
		t.Errorf("continuation parse failed: %+v", top.Devices)
	}
}

func TestParseMetresVsMicrons(t *testing.T) {
	deck := "m1 y a vss vss nmos w=2u l=0.75u\nm2 z a vss vss nmos w=2 l=0.75\n"
	_, top, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range top.Devices {
		if math.Abs(d.W-2) > 1e-9 || math.Abs(d.L-0.75) > 1e-9 {
			t.Errorf("%s: W=%g L=%g, want 2/0.75", d.Name, d.W, d.L)
		}
	}
}

func TestParseVtAndExtraL(t *testing.T) {
	deck := "m1 y a vss vss nmos w=2 l=0.35 vt=lvt extral=0.045\n"
	_, top, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	d := top.Devices[0]
	if d.Vt != process.LowVt {
		t.Errorf("vt = %v", d.Vt)
	}
	if math.Abs(d.ExtraL-0.045) > 1e-9 {
		t.Errorf("extral = %g", d.ExtraL)
	}
}

func TestParseValueSuffixes(t *testing.T) {
	cases := map[string]float64{
		"10":   10,
		"10f":  10e-15,
		"2.5p": 2.5e-12,
		"1k":   1e3,
		"3meg": 3e6,
		"100n": 100e-9,
		"0.5u": 0.5e-6,
		"1m":   1e-3,
		"2g":   2e9,
	}
	for s, want := range cases {
		got, err := parseValue(s)
		if err != nil {
			t.Errorf("parseValue(%q): %v", s, err)
			continue
		}
		if math.Abs(got-want)/want > 1e-12 {
			t.Errorf("parseValue(%q) = %g, want %g", s, got, want)
		}
	}
	if _, err := parseValue("abc"); err == nil {
		t.Error("parseValue should reject non-numeric")
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		deck string
		want string
	}{
		{".subckt\n", ".subckt needs a name"},
		{".ends\n", ".ends without .subckt"},
		{".subckt a p\n", "missing .ends"},
		{".subckt a p\n.subckt b q\n", "nested"},
		{".tran 1n\n", "unsupported card"},
		{"q1 a b c\n", "unknown element"},
		{"m1 y a vss vss nmos w=2\n", "missing w/l"},
		{"m1 y a vss vss xmos w=2 l=1\n", "unknown model"},
		{"m1 y a vss vss nmos w=2 l=1 vt=zzz\n", "unknown vt class"},
		{"m1 y a vss vss nmos w=2 l=1 foo=1\n", "unknown parameter"},
		{"m1 y a vss vss nmos w=2 l=1 bare\n", "malformed parameter"},
		{"c1 a vss\n", "want C"},
		{"r1 a b xx\n", "bad numeric"},
		{"x1 inv\n", "want X"},
		{"m1 y a vss vss nmos w=1e-10 l=1\n", "device m1: w: 1e-10 is not 0 or a finite size of at least 1e-3 µm"},
		{"m1 y a vss vss nmos w=2 l=1 extral=-1\n", "device m1: extral: -1 is not 0 or a finite size"},
		{"m1 y a vss vss nmos w=infinity l=1\n", "device m1: w: infinity is not 0 or a finite size"},
		{"c1 a vss -4f\n", "capacitor c1: value -4f is negative or not finite"},
		{"r1 a b infinity\n", "resistor r1: value infinity is not finite"},
		{"*attr a =\n", "*attr a: empty key"},
	}
	for _, c := range cases {
		_, _, err := Parse(strings.NewReader(c.deck))
		if err == nil {
			t.Errorf("deck %q: want error containing %q, got nil", c.deck, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("deck %q: error %q does not contain %q", c.deck, err, c.want)
		}
		var pe *ParseError
		if !asParseError(err, &pe) {
			t.Errorf("deck %q: error is not a *ParseError: %T", c.deck, err)
		} else if pe.Line == 0 {
			t.Errorf("deck %q: error lost its line number", c.deck)
		}
	}
}

// asParseError is a minimal errors.As for the single error type here.
func asParseError(err error, target **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*target = pe
	}
	return ok
}

func TestCapAttachment(t *testing.T) {
	deck := "c1 a vss 4f\nc2 vdd b 6f\nc3 a b 8f\nc4 vdd vss 100f\n"
	_, top, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	a, b := top.FindNode("a"), top.FindNode("b")
	if got := top.Nodes[a].CapFF; math.Abs(got-8) > 1e-9 { // 4 + 8/2
		t.Errorf("cap(a) = %g, want 8", got)
	}
	if got := top.Nodes[b].CapFF; math.Abs(got-10) > 1e-9 { // 6 + 8/2
		t.Errorf("cap(b) = %g, want 10", got)
	}
}

// TestCapRoundTrip: a C value converts to fF by its suffix's power of
// ten relative to femto, so 10f is exactly 10 fF and repeated
// Write→Parse passes keep every node's CapFF and the Fingerprint.
func TestCapRoundTrip(t *testing.T) {
	for _, c := range []struct {
		value string
		fF    float64
	}{{"10f", 10}, {"2.5p", 2500}, {"4.7f", 4.7}, {"33.3f", 33.3}} {
		_, top, err := Parse(strings.NewReader("m1 y a vss vss nmos w=2 l=0.75\nc1 y vss " + c.value + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if got := top.Nodes[top.FindNode("y")].CapFF; got != c.fF {
			t.Errorf("%s parses to %v fF, want %v", c.value, got, c.fF)
		}
		for pass := 1; pass <= 3; pass++ {
			var buf bytes.Buffer
			if err := Write(&buf, nil, top); err != nil {
				t.Fatal(err)
			}
			_, next, err := Parse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			got, want := next.Nodes[next.FindNode("y")].CapFF, top.Nodes[top.FindNode("y")].CapFF
			if got != want || next.Fingerprint() != top.Fingerprint() {
				t.Errorf("%s: pass %d moved CapFF %v → %v or the Fingerprint", c.value, pass, want, got)
			}
			top = next
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	lib, top, err := Parse(strings.NewReader(sampleDeck))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, lib, top); err != nil {
		t.Fatal(err)
	}
	lib2, top2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v\ndeck:\n%s", err, buf.String())
	}
	if len(lib2.Cells()) != len(lib.Cells()) {
		t.Errorf("cells: %v vs %v", lib2.Cells(), lib.Cells())
	}
	if len(top2.Devices) != len(top.Devices) || len(top2.Instances) != len(top.Instances) ||
		len(top2.Resistors) != len(top.Resistors) {
		t.Error("top contents changed in round trip")
	}
	n2 := top2.FindNode("n2")
	if n2 == InvalidNode || math.Abs(top2.Nodes[n2].CapFF-10) > 1e-6 {
		t.Error("node cap lost in round trip")
	}
	in := top2.FindNode("in")
	if top2.Nodes[in].Attrs["clock"] != "phi1" {
		t.Error("attr lost in round trip")
	}
	inv2 := lib2.Cell("inv")
	d := inv2.Devices[0]
	if d.W != 2 || d.L != 0.75 || d.Type != process.NMOS {
		t.Errorf("device changed in round trip: %+v", d)
	}
}

func TestWriteVtAndExtraLRoundTrip(t *testing.T) {
	top := New("t")
	d := top.NMOS("m1", "a", "vss", "y", 2, 0.35)
	d.Vt = process.HighVt
	d.ExtraL = 0.09
	var buf bytes.Buffer
	if err := Write(&buf, nil, top); err != nil {
		t.Fatal(err)
	}
	_, top2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d2 := top2.Devices[0]
	if d2.Vt != process.HighVt || math.Abs(d2.ExtraL-0.09) > 1e-9 {
		t.Errorf("round trip lost vt/extral: %+v", d2)
	}
}
