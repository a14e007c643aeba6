package rtl

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// mustSim parses, elaborates and compiles source.
func mustSim(t *testing.T, src string) *Sim {
	t.Helper()
	prog, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSim(prog)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// set drives a signal, failing the test on error.
func set(t *testing.T, s *Sim, name string, v uint64) {
	t.Helper()
	if err := s.Set(name, v); err != nil {
		t.Fatal(err)
	}
}

func TestCombinationalBasics(t *testing.T) {
	s := mustSim(t, `
module top(a[8], b[8] -> x[8], y[8], z[8], eq)
assign x = a + b
assign y = a & ~b
assign z = a << 2
assign eq = a == b
endmodule
`)
	set(t, s, "a", 0x0f)
	set(t, s, "b", 0xf0)
	if got := s.Get("x"); got != 0xff {
		t.Errorf("x = %#x", got)
	}
	if got := s.Get("y"); got != 0x0f {
		t.Errorf("y = %#x", got)
	}
	if got := s.Get("z"); got != 0x3c {
		t.Errorf("z = %#x", got)
	}
	if got := s.Get("eq"); got != 0 {
		t.Errorf("eq = %d", got)
	}
	set(t, s, "b", 0x0f)
	if got := s.Get("eq"); got != 1 {
		t.Errorf("eq = %d after match", got)
	}
}

func TestWidthMaskingAndOverflow(t *testing.T) {
	s := mustSim(t, `
module top(a[4] -> x[4], big[64])
assign x = a + 1
assign big = a
endmodule
`)
	set(t, s, "a", 15)
	if got := s.Get("x"); got != 0 {
		t.Errorf("4-bit 15+1 = %d, want wrap to 0", got)
	}
	// Inputs mask on Set.
	set(t, s, "a", 0x1f)
	if got := s.Get("a"); got != 0xf {
		t.Errorf("a = %#x, want masked to 4 bits", got)
	}
}

func TestSliceIndexConcatMuxReduce(t *testing.T) {
	s := mustSim(t, `
module top(a[8], sel -> hi[4], b3, cat[16], m[8], ror, rand, rxor)
assign hi = a[7:4]
assign b3 = a[3]
assign cat = {a, a}
assign m = sel ? a : 0xff
assign ror = redor(a)
assign rand = redand(a)
assign rxor = redxor(a)
endmodule
`)
	set(t, s, "a", 0xa8)
	set(t, s, "sel", 1)
	if got := s.Get("hi"); got != 0xa {
		t.Errorf("hi = %#x", got)
	}
	if got := s.Get("b3"); got != 1 {
		t.Errorf("b3 = %d", got)
	}
	if got := s.Get("cat"); got != 0xa8a8 {
		t.Errorf("cat = %#x", got)
	}
	if got := s.Get("m"); got != 0xa8 {
		t.Errorf("m = %#x", got)
	}
	set(t, s, "sel", 0)
	if got := s.Get("m"); got != 0xff {
		t.Errorf("m = %#x with sel=0", got)
	}
	if got := s.Get("ror"); got != 1 {
		t.Errorf("redor = %d", got)
	}
	if got := s.Get("rand"); got != 0 {
		t.Errorf("redand = %d", got)
	}
	if got := s.Get("rxor"); got != 1 { // 0xa8 has 3 ones
		t.Errorf("redxor = %d", got)
	}
}

func TestRegisterPhases(t *testing.T) {
	// Two-phase pipeline: r1 samples on phi1, r2 copies r1 on phi2.
	// After one full cycle the input appears at r2.
	s := mustSim(t, `
module top(d[8] -> q[8])
reg r1[8] @phi1
reg r2[8] @phi2
on phi1: r1 <= d
on phi2: r2 <= r1
assign q = r2
endmodule
`)
	set(t, s, "d", 42)
	s.Cycle()
	if got := s.Get("q"); got != 42 {
		t.Errorf("q = %d after one cycle, want 42", got)
	}
	set(t, s, "d", 7)
	s.Phase("phi1")
	if got := s.Get("q"); got != 42 {
		t.Errorf("q changed before phi2: %d", got)
	}
	s.Phase("phi2")
	if got := s.Get("q"); got != 7 {
		t.Errorf("q = %d after phi2, want 7", got)
	}
}

func TestRegisterInitAndCounter(t *testing.T) {
	s := mustSim(t, `
module top( -> count[8])
reg c[8] @phi1 = 250
on phi1: c <= c + 1
assign count = c
endmodule
`)
	if got := s.Get("count"); got != 250 {
		t.Errorf("init = %d", got)
	}
	s.Run(10)
	if got := s.Get("count"); got != 4 { // 250+10 mod 256
		t.Errorf("count = %d after 10 cycles, want 4", got)
	}
	if s.Cycles() != 10 {
		t.Errorf("cycles = %d", s.Cycles())
	}
}

func TestConditionalClocking(t *testing.T) {
	// §3: "conditional clocking" — the enable gates the register clock.
	s := mustSim(t, `
module top(d[8], en -> q[8])
reg r[8] @phi1
on phi1 if en: r <= d
assign q = r
endmodule
`)
	set(t, s, "d", 99)
	set(t, s, "en", 0)
	s.Cycle()
	if got := s.Get("q"); got != 0 {
		t.Errorf("disabled reg captured: %d", got)
	}
	set(t, s, "en", 1)
	s.Cycle()
	if got := s.Get("q"); got != 99 {
		t.Errorf("enabled reg missed: %d", got)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	s := mustSim(t, `
module top(waddr[4], wdata[8], raddr[4], we -> rdata[8])
mem m 16 8
on phi1 if we: m[waddr] <= wdata
assign rdata = m[raddr]
endmodule
`)
	set(t, s, "waddr", 5)
	set(t, s, "wdata", 0xab)
	set(t, s, "we", 1)
	s.Cycle()
	set(t, s, "raddr", 5)
	if got := s.Get("rdata"); got != 0xab {
		t.Errorf("rdata = %#x", got)
	}
	// Direct access helpers.
	if v, err := s.GetMem("m", 5); err != nil || v != 0xab {
		t.Errorf("GetMem = %v, %v", v, err)
	}
	if err := s.LoadMem("m", []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.GetMem("m", 2); v != 3 {
		t.Errorf("LoadMem content = %d", v)
	}
	if _, err := s.GetMem("none", 0); err == nil {
		t.Error("unknown mem accepted")
	}
	if _, err := s.GetMem("m", 99); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := s.LoadMem("m", make([]uint64, 17)); err == nil {
		t.Error("oversized load accepted")
	}
}

func TestCamPrimitive(t *testing.T) {
	s := mustSim(t, `
module top(key[16], waddr[3], wdata[16], we -> hit, idx[3])
cam tags 8 16
on phi1 if we: tags[waddr] <= wdata
assign hit = tags.hit(key)
assign idx = tags.index(key)
endmodule
`)
	// Empty CAM: no hit even on key 0 (valid bits).
	set(t, s, "key", 0)
	if got := s.Get("hit"); got != 0 {
		t.Error("empty CAM reported a hit")
	}
	// Write two entries.
	set(t, s, "we", 1)
	set(t, s, "waddr", 3)
	set(t, s, "wdata", 0xbeef)
	s.Cycle()
	set(t, s, "waddr", 6)
	set(t, s, "wdata", 0xcafe)
	s.Cycle()
	set(t, s, "we", 0)

	set(t, s, "key", 0xbeef)
	if s.Get("hit") != 1 || s.Get("idx") != 3 {
		t.Errorf("match: hit=%d idx=%d", s.Get("hit"), s.Get("idx"))
	}
	set(t, s, "key", 0xcafe)
	if s.Get("hit") != 1 || s.Get("idx") != 6 {
		t.Errorf("match: hit=%d idx=%d", s.Get("hit"), s.Get("idx"))
	}
	set(t, s, "key", 0x1234)
	if s.Get("hit") != 0 {
		t.Error("miss reported as hit")
	}
}

func TestInstanceFlattening(t *testing.T) {
	s := mustSim(t, `
module adder(x[8], y[8] -> s[8])
assign s = x + y
endmodule
module top(a[8], b[8] -> out[8])
wire t[8]
inst u1 of adder(x=a, y=b, s=t)
inst u2 of adder(x=t, y=a, s=out)
endmodule
`)
	set(t, s, "a", 10)
	set(t, s, "b", 20)
	if got := s.Get("out"); got != 40 {
		t.Errorf("out = %d, want (10+20)+10", got)
	}
	// Internal hierarchical signals exist but are private.
	if s.Design().SignalIndex("u1/x") >= 0 {
		t.Error("bound child port should alias the parent, not exist separately")
	}
}

func TestInstanceWithInternalState(t *testing.T) {
	s := mustSim(t, `
module cnt(en -> v[8])
reg c[8] @phi1
on phi1 if en: c <= c + 1
assign v = c
endmodule
module top(go -> a[8], b[8])
inst c1 of cnt(en=go, v=a)
inst c2 of cnt(en=go, v=b)
endmodule
`)
	set(t, s, "go", 1)
	s.Run(3)
	if s.Get("a") != 3 || s.Get("b") != 3 {
		t.Errorf("counters = %d, %d", s.Get("a"), s.Get("b"))
	}
	// The two instances must have distinct state.
	if s.Design().SignalIndex("c1/c") < 0 || s.Design().SignalIndex("c2/c") < 0 {
		t.Error("instance-private registers missing")
	}
}

func TestElaborationErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"module top(a -> b)\nassign b = nosuch\nendmodule", "undeclared"},
		{"module top(a -> b)\nassign b = a\nassign b = a\nendmodule", "already driven"},
		{"module top(a -> b)\nassign a = 1\nendmodule", "input"},
		{"module top(a -> b)\nreg r @phi1\nassign r = a\nendmodule", "combinationally"},
		{"module top(a -> b)\nwire w\nassign w = b\nassign b = w\nendmodule", "cycle"},
		{"module top(a -> b)\nreg r @phi1\non phi2: r <= a\nassign b = r\nendmodule", "@phi1 but written on phi2"},
		{"module top(a -> b)\non phi1: a[2] <= 1\nassign b = a\nendmodule", "not a mem or cam"},
		{"module top(a[4] -> b)\nassign b = a[7:5]\nendmodule", "exceeds width"},
		{"module top(a -> b)\ninst u of nosuch(x=a)\nendmodule", "unknown module"},
		{"module r(a -> b)\ninst u of r(a=a, b=b)\nassign b = a\nendmodule", "recursive"},
		{"module c(x -> y)\nassign y = x\nendmodule\nmodule top(a -> b)\ninst u of c(nope=a, y=b)\nendmodule", "no port"},
	}
	for _, cse := range cases {
		prog, err := ParseString(cse.src)
		if err == nil {
			_, err = NewSim(prog)
		}
		if err == nil || !strings.Contains(err.Error(), cse.want) {
			t.Errorf("source %q: want error containing %q, got %v", cse.src, cse.want, err)
		}
	}
}

func TestParserErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"wire x\n", "expected 'module'"},
		{"module top(a -> b)\n", "missing endmodule"},
		{"module top(a -> b)\nfrobnicate x\nendmodule", "unknown statement"},
		{"module top(a[99] -> b)\nendmodule", "1..64"},
		{"module top(a -> b)\nreg r\nendmodule", "clock phase"},
		{"module top(a -> b)\nwire w @phi1\nendmodule", "cannot have a phase"},
		{"module top(a -> b)\nmem m x 8\nendmodule", "invalid"},
		{"module top(a -> b)\nassign b a\nendmodule", "'='"},
		{"module top(a -> b)\nassign b = a +\nendmodule", "unexpected end"},
		{"module top(a -> b)\nassign b = (a\nendmodule", "expected"},
		{"module top(a -> b)\nassign b = a $ 1\nendmodule", "unexpected character"},
		{"module top(a -> b)\non phi1 r <= a\nendmodule", "':'"},
		{"module top(a -> b)\ninst u of(x=a)\nendmodule", "inst needs"},
		{"module top(a -> b)\nassign b = t.pop(a)\nendmodule", "cam operation"},
		{"module top(a -> b)\nmodule q(c -> d)\nendmodule", "missing endmodule"},
	}
	for _, cse := range cases {
		_, err := ParseString(cse.src)
		if err == nil || !strings.Contains(err.Error(), cse.want) {
			t.Errorf("source %q: want error containing %q, got %v", cse.src, cse.want, err)
		}
	}
	// Errors carry line numbers.
	_, err := ParseString("module top(a -> b)\nassign b = $\nendmodule")
	se, ok := err.(*SyntaxError)
	if !ok || se.Line != 2 {
		t.Errorf("want SyntaxError at line 2, got %v", err)
	}
}

// TestArrayDepthBound: a memory or CAM deeper than maxDepth is a
// syntax error on its own line, and one exactly at the bound parses.
func TestArrayDepthBound(t *testing.T) {
	for _, kind := range []string{"mem", "cam"} {
		src := func(depth int) string {
			return fmt.Sprintf("module top(a -> b)\nassign b = a\n%s m %d 8\nendmodule\n", kind, depth)
		}
		_, err := ParseString(src(maxDepth + 1))
		if se, ok := err.(*SyntaxError); !ok || se.Line != 3 || !strings.Contains(se.Msg, "exceeds the limit") {
			t.Errorf("%s depth %d: want a SyntaxError at line 3 naming the limit, got %v", kind, maxDepth+1, err)
		}
		prog, err := ParseString(src(maxDepth))
		if err != nil {
			t.Fatalf("%s depth %d: %v", kind, maxDepth, err)
		}
		top := prog.Modules["top"]
		if got := len(top.Mems) + len(top.Cams); got != 1 {
			t.Errorf("%s depth %d: %d arrays declared, want 1", kind, maxDepth, got)
		}
	}
}

// TestElaboratedArrayBound: inst copies a child's arrays into every
// instance, so a deck whose every declaration is within maxDepth can
// elaborate to far more words. Elaborate bounds the design's total, and
// a design exactly at the limit elaborates.
func TestElaboratedArrayBound(t *testing.T) {
	// nested puts leaf's arrays under four levels of four instances: 256
	// copies.
	nested := func(leaf string) string {
		var b strings.Builder
		fmt.Fprintf(&b, "module l0(a -> b)\n%s\nassign b = a\nendmodule\n", leaf)
		for lvl := 1; lvl <= 4; lvl++ {
			name := fmt.Sprintf("l%d", lvl)
			if lvl == 4 {
				name = "top"
			}
			fmt.Fprintf(&b, "module %s(a -> b)\n", name)
			for i := 0; i < 4; i++ {
				fmt.Fprintf(&b, "inst u%d of l%d(a=a)\n", i, lvl-1)
			}
			b.WriteString("assign b = a\nendmodule\n")
		}
		return b.String()
	}
	for _, tc := range []struct {
		leaf  string
		words int // 256 copies of the leaf's depths
	}{
		{"mem m 65536 64", 256 * 65536},
		{"mem m 128 8\ncam c 129 8", 256 * 257},
		{"mem m 128 8\ncam c 128 8", maxDepth},
	} {
		prog, err := ParseString(nested(tc.leaf))
		if err != nil {
			t.Fatalf("%q: %v", tc.leaf, err)
		}
		d, err := Elaborate(prog)
		if tc.words > maxDepth {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("holds %d memory and CAM words, over the limit of %d", tc.words, maxDepth)) {
				t.Errorf("%q: want an error naming %d words and the limit, got %v", tc.leaf, tc.words, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %d words, at the limit: %v", tc.leaf, tc.words, err)
		}
		if got := len(d.Mems) + len(d.Cams); got != 512 {
			t.Errorf("%q: %d arrays elaborated, want 512", tc.leaf, got)
		}
	}
}

func TestNumberFormats(t *testing.T) {
	s := mustSim(t, `
module top( -> a[16], b[16], c[16])
assign a = 0xff
assign b = 0b1010
assign c = 1000
endmodule
`)
	if s.Get("a") != 255 || s.Get("b") != 10 || s.Get("c") != 1000 {
		t.Errorf("literals: %d %d %d", s.Get("a"), s.Get("b"), s.Get("c"))
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	s := mustSim(t, `
# leading comment
module top(a -> b)   # ports
assign b = a         # pass through
endmodule
`)
	set(t, s, "a", 1)
	if s.Get("b") != 1 {
		t.Error("comment handling broke the design")
	}
}

func TestDesignStats(t *testing.T) {
	s := mustSim(t, `
module top(a[8] -> b[8])
reg r[8] @phi1
mem m 4 8
cam c 4 8
on phi1: r <= a
assign b = r
endmodule
`)
	stats := s.Design().Stats()
	for _, want := range []string{"1 regs", "1 mems", "1 cams", "phases phi1"} {
		if !strings.Contains(stats, want) {
			t.Errorf("stats %q missing %q", stats, want)
		}
	}
}

// Property: the FCL adder agrees with Go's addition for all 8-bit pairs.
func TestAdderMatchesGoProperty(t *testing.T) {
	s := mustSim(t, `
module top(a[8], b[8] -> sum[8], carry)
wire t[9]
assign t = {0, a} + {0, b}
assign sum = t[7:0]
assign carry = t[8]
endmodule
`)
	f := func(a, b uint8) bool {
		set(t, s, "a", uint64(a))
		set(t, s, "b", uint64(b))
		total := uint64(a) + uint64(b)
		return s.Get("sum") == total&0xff && s.Get("carry") == total>>8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: conditional-sum identity — mux of two expressions equals
// whichever branch the condition picks.
func TestMuxProperty(t *testing.T) {
	s := mustSim(t, `
module top(c, x[16], y[16] -> z[16])
assign z = c ? x : y
endmodule
`)
	f := func(c bool, x, y uint16) bool {
		cv := uint64(0)
		if c {
			cv = 1
		}
		set(t, s, "c", cv)
		set(t, s, "x", uint64(x))
		set(t, s, "y", uint64(y))
		want := uint64(y)
		if c {
			want = uint64(x)
		}
		return s.Get("z") == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetUnknownSignal(t *testing.T) {
	s := mustSim(t, "module top(a -> b)\nassign b = a\nendmodule")
	if err := s.Set("zz", 1); err == nil {
		t.Error("Set of unknown signal accepted")
	}
	if got := s.Get("zz"); got != 0 {
		t.Error("Get of unknown should be 0")
	}
}

func TestActivityTracking(t *testing.T) {
	s := mustSim(t, `
module top(en -> q[8])
reg c[8] @phi1
on phi1 if en: c <= c + 1
assign q = c
endmodule
`)
	// Half the cycles enabled: gating factor 0.5, counter toggles every
	// enabled cycle.
	s.StartActivity()
	for i := 0; i < 20; i++ {
		set(t, s, "en", uint64(i)&1)
		s.Cycle()
	}
	a := s.StopActivity()
	if a.Cycles != 20 {
		t.Errorf("cycles = %d", a.Cycles)
	}
	if g := a.ClockGatingFactor(); g < 0.45 || g > 0.55 {
		t.Errorf("gating factor = %.2f, want ≈0.5", g)
	}
	if a.Toggles["c"] == 0 || a.Toggles["q"] == 0 {
		t.Errorf("counter toggles missing: %v", a.Toggles)
	}
	if a.AvgTogglesPerCycle() <= 0 {
		t.Error("zero average activity")
	}
	// Stopped tracking returns zero profile.
	if z := s.StopActivity(); z.Cycles != 0 {
		t.Error("second StopActivity should be empty")
	}
	if !strings.Contains(a.String(), "clock gating") {
		t.Error("activity string mismatch")
	}
}
