package designs

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
	"repro/internal/recognize"
	"repro/internal/rtl"
	"repro/internal/switchsim"
)

func TestInverterChainStructure(t *testing.T) {
	c := InverterChain(8)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Devices) != 16 {
		t.Errorf("devices = %d", len(c.Devices))
	}
	rec, err := recognize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.GroupsByFamily(recognize.FamilyStaticCMOS)); got != 8 {
		t.Errorf("static groups = %d, want 8", got)
	}
}

// simAdder drives the domino adder through a precharge/evaluate cycle
// and returns the observed sum.
func simAdder(t *testing.T, s *switchsim.PackedSim, n int, a, b uint64, cin bool) (sum uint64, cout bool) {
	t.Helper()
	// Precharge with clock low.
	s.SetQuietAll("phi1", switchsim.Lo)
	for i := 0; i < n; i++ {
		s.SetQuietAll(fmt.Sprintf("a%d", i), switchsim.Bool(a>>uint(i)&1 == 1))
		s.SetQuietAll(fmt.Sprintf("b%d", i), switchsim.Bool(b>>uint(i)&1 == 1))
	}
	s.SetQuietAll("cin", switchsim.Bool(cin))
	s.Settle()
	// Evaluate.
	s.SetQuietAll("phi1", switchsim.Hi)
	s.Settle()
	for i := 0; i < n; i++ {
		v := s.GetLane(fmt.Sprintf("s%d", i), 0)
		if v == switchsim.X {
			t.Fatalf("s%d is X for a=%d b=%d cin=%v", i, a, b, cin)
		}
		if v == switchsim.Hi {
			sum |= 1 << uint(i)
		}
	}
	return sum, s.GetLane("cout", 0) == switchsim.Hi
}

func TestDominoAdderComputesCorrectly(t *testing.T) {
	const n = 8
	c := DominoAdder(n)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := switchsim.NewPacked(c)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b uint64
		cin  bool
	}{
		{0, 0, false}, {1, 1, false}, {255, 1, false}, {0xaa, 0x55, true},
		{0x7f, 0x01, false}, {0xff, 0xff, true}, {3, 200, false},
	}
	for _, cse := range cases {
		sum, cout := simAdder(t, s, n, cse.a, cse.b, cse.cin)
		want := cse.a + cse.b
		if cse.cin {
			want++
		}
		if sum != want&0xff || cout != (want>>8&1 == 1) {
			t.Errorf("add(%d,%d,%v) = %d cout=%v, want %d cout=%v",
				cse.a, cse.b, cse.cin, sum, cout, want&0xff, want>>8&1 == 1)
		}
	}
}

// Property: the 8-bit domino adder matches integer addition on random
// operands (the switch-level sim is the oracle-free ground truth here).
func TestDominoAdderProperty(t *testing.T) {
	const n = 8
	s, err := switchsim.NewPacked(DominoAdder(n))
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8, cin bool) bool {
		sum, cout := simAdder(t, s, n, uint64(a), uint64(b), cin)
		want := uint64(a) + uint64(b)
		if cin {
			want++
		}
		return sum == want&0xff && cout == (want>>8&1 == 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDominoAdderRecognition(t *testing.T) {
	rec, err := recognize.Analyze(DominoAdder(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.GroupsByFamily(recognize.FamilyDynamic)); got != 4 {
		t.Errorf("dynamic groups = %d, want 4 (one carry gate per bit); %s", got, rec.Summary())
	}
	if !rec.IsClock(rec.Circuit.FindNode("phi1")) {
		t.Error("phi1 not recognized as clock")
	}
	if len(rec.DynamicNodes) != 4 {
		t.Errorf("dynamic nodes = %d", len(rec.DynamicNodes))
	}
}

func TestLatchPipelineRecognition(t *testing.T) {
	rec, err := recognize.Analyze(LatchPipeline(4, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Latches) != 4 {
		t.Errorf("latches = %d, want 4; %s", len(rec.Latches), rec.Summary())
	}
}

func TestSRAMArrayStructure(t *testing.T) {
	c := SRAMArray(4, 8, 0.045)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Devices) != 4*8*6 {
		t.Errorf("devices = %d, want %d", len(c.Devices), 4*8*6)
	}
	for _, d := range c.Devices {
		if d.ExtraL != 0.045 {
			t.Fatalf("device %s missing channel lengthening", d.Name)
		}
	}
	rec, err := recognize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	// The shared bitlines channel-connect every cell in a column, so
	// conservative recognition sees one storage structure per column
	// (the bl-side and blb-side CCCs form one feedback loop), holding
	// all four words' state nodes.
	if len(rec.Latches) != 8 {
		t.Errorf("latches = %d, want 8 (one per column)", len(rec.Latches))
	}
	stateNodes := 0
	for _, l := range rec.Latches {
		stateNodes += len(l.StateNodes)
	}
	if stateNodes < 4*8*2 {
		t.Errorf("state nodes = %d, want ≥64 (q and qn of every cell)", stateNodes)
	}
}

func TestPassMuxSteering(t *testing.T) {
	c := PassMux(4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := switchsim.NewPacked(c)
	if err != nil {
		t.Fatal(err)
	}
	for sel := 0; sel < 4; sel++ {
		for i := 0; i < 4; i++ {
			s.SetQuietAll(fmt.Sprintf("in%d", i), switchsim.Bool(i == 2))
			s.SetQuietAll(fmt.Sprintf("s%d", i), switchsim.Bool(i == sel))
			s.SetQuietAll(fmt.Sprintf("sn%d", i), switchsim.Bool(i != sel))
		}
		s.Settle()
		want := switchsim.Bool(sel == 2)
		if got := s.GetLane("y", 0); got != want {
			t.Errorf("mux sel=%d: y=%v want %v", sel, got, want)
		}
	}
}

func TestPipelineRTLRuns(t *testing.T) {
	prog, err := rtl.ParseString(PipelineRTL())
	if err != nil {
		t.Fatal(err)
	}
	s, err := rtl.NewSim(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Program: r1 = r0 + r0... load a couple of immediate-ish ops.
	// op 6 = load-immediate-ish: {vb[11:0], imm}.
	// Encode: op[15:13] rd[12:10] ra[9:7] rb[6:4] imm[3:0]
	enc := func(op, rd, ra, rb, imm uint64) uint64 {
		return op<<13 | rd<<10 | ra<<7 | rb<<4 | imm
	}
	img := []uint64{
		enc(6, 1, 0, 0, 5), // r1 = imm 5
		enc(6, 2, 0, 0, 3), // r2 = imm 3
		enc(0, 3, 1, 2, 0), // r3 = r1 + r2
		enc(1, 4, 3, 2, 0), // r4 = r3 - r2
	}
	if err := s.LoadMem("imem", img); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("run", 1); err != nil {
		t.Fatal(err)
	}
	s.Run(8)
	if v, _ := s.GetMem("regs", 3); v != 8 {
		t.Errorf("r3 = %d, want 8", v)
	}
	if v, _ := s.GetMem("regs", 4); v != 5 {
		t.Errorf("r4 = %d, want 5", v)
	}
	if s.Get("pc_out") == 0 {
		t.Error("pc did not advance")
	}
}

func TestCamNativeVsExpandedAgree(t *testing.T) {
	// Both CAM encodings must behave identically (that is the point of
	// the S4 benchmark: same function, different cost).
	for _, depth := range []int{8, 32} {
		nat, err := rtl.ParseString(CamNativeRTL(depth))
		if err != nil {
			t.Fatal(err)
		}
		exp, err := rtl.ParseString(CamExpandedRTL(depth))
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		sn, err := rtl.NewSim(nat)
		if err != nil {
			t.Fatal(err)
		}
		se, err := rtl.NewSim(exp)
		if err != nil {
			t.Fatal(err)
		}
		drive := func(s *rtl.Sim, sig string, v uint64) {
			if err := s.Set(sig, v); err != nil {
				t.Fatal(err)
			}
		}
		// Write a few entries into both, then probe.
		writes := []struct{ addr, data uint64 }{{1, 0xaaaa}, {5, 0x1234}, {7, 0xffff}}
		for _, w := range writes {
			for _, s := range []*rtl.Sim{sn, se} {
				drive(s, "we", 1)
				drive(s, "waddr", w.addr)
				drive(s, "wdata", w.data)
				s.Cycle()
			}
		}
		for _, s := range []*rtl.Sim{sn, se} {
			drive(s, "we", 0)
		}
		probes := []uint64{0xaaaa, 0x1234, 0xffff, 0, 0xbbbb}
		for _, key := range probes {
			drive(sn, "key", key)
			drive(se, "key", key)
			if sn.Get("hit") != se.Get("hit") {
				t.Errorf("depth %d key %#x: native=%d expanded=%d",
					depth, key, sn.Get("hit"), se.Get("hit"))
			}
		}
	}
}

func TestExpandedCamIsMuchBigger(t *testing.T) {
	nat, _ := rtl.ParseString(CamNativeRTL(64))
	exp, _ := rtl.ParseString(CamExpandedRTL(64))
	dn, err := rtl.Elaborate(nat)
	if err != nil {
		t.Fatal(err)
	}
	de, err := rtl.Elaborate(exp)
	if err != nil {
		t.Fatal(err)
	}
	if len(de.Assigns) < 10*len(dn.Assigns) {
		t.Errorf("expanded CAM should dwarf the native one: %d vs %d assigns",
			len(de.Assigns), len(dn.Assigns))
	}
}

func TestMod5PairParses(t *testing.T) {
	for _, src := range []string{Mod5CounterRTL(), Mod5RingRTL(), AdderRTL(8)} {
		prog, err := rtl.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rtl.NewSim(prog); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAdderRTLComputes(t *testing.T) {
	prog, _ := rtl.ParseString(AdderRTL(8))
	s, err := rtl.NewSim(prog)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Set("a", 200)
	_ = s.Set("b", 100)
	_ = s.Set("cin", 1)
	if got := s.Get("s"); got != (200+100+1)&0xff {
		t.Errorf("s = %d", got)
	}
	if got := s.Get("cout"); got != 1 {
		t.Errorf("cout = %d", got)
	}
}

// AddNOR2 appends a static 2-input NOR, a gate no generator uses but
// the switch-level and cross-validation tests drive.
func AddNOR2(c *netlist.Circuit, name, a, b, y string) {
	mid := name + "_m"
	c.NMOS(name+"_na", a, "vss", y, wStkN, lMin)
	c.NMOS(name+"_nb", b, "vss", y, wStkN, lMin)
	c.PMOS(name+"_pa", a, "vdd", mid, wStkP, lMin)
	c.PMOS(name+"_pb", b, mid, y, wStkP, lMin)
}

func TestNOR2Gate(t *testing.T) {
	c := netListWithPorts("nor2", "a", "b", "y")
	AddNOR2(c, "g", "a", "b", "y")
	s, err := switchsim.NewPacked(c)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ a, b, want switchsim.Value }{
		{switchsim.Lo, switchsim.Lo, switchsim.Hi},
		{switchsim.Hi, switchsim.Lo, switchsim.Lo},
		{switchsim.Lo, switchsim.Hi, switchsim.Lo},
		{switchsim.Hi, switchsim.Hi, switchsim.Lo},
	}
	for _, cse := range cases {
		s.SetQuietAll("a", cse.a)
		s.SetQuietAll("b", cse.b)
		s.Settle()
		if got := s.GetLane("y", 0); got != cse.want {
			t.Errorf("nor(%v,%v) = %v", cse.a, cse.b, got)
		}
	}
}

// netListWithPorts builds an empty circuit with declared ports.
func netListWithPorts(name string, ports ...string) *netlist.Circuit {
	c := netlist.New(name)
	for _, p := range ports {
		c.DeclarePort(p)
	}
	return c
}

func TestDCVSLComparator(t *testing.T) {
	const n = 4
	c := DCVSLComparator(n)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	rec, err := recognize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	// Every stage pair — per-bit XOR/XNOR and the output merge — is
	// recognized as DCVSL (2 groups per pair).
	if got := len(rec.GroupsByFamily(recognize.FamilyDCVSL)); got != 2*(n+1) {
		t.Errorf("DCVSL groups = %d, want %d; %s", got, 2*(n+1), rec.Summary())
	}
	s, err := switchsim.NewPacked(c)
	if err != nil {
		t.Fatal(err)
	}
	drive := func(a, b uint64) {
		for i := 0; i < n; i++ {
			abit := a>>uint(i)&1 == 1
			bbit := b>>uint(i)&1 == 1
			s.SetQuietAll(fmt.Sprintf("a%d", i), switchsim.Bool(abit))
			s.SetQuietAll(fmt.Sprintf("an%d", i), switchsim.Bool(!abit))
			s.SetQuietAll(fmt.Sprintf("b%d", i), switchsim.Bool(bbit))
			s.SetQuietAll(fmt.Sprintf("bn%d", i), switchsim.Bool(!bbit))
		}
		s.Settle()
	}
	cases := []struct{ a, b uint64 }{
		{0, 0}, {5, 5}, {15, 15}, {0, 1}, {5, 10}, {15, 14}, {8, 0},
	}
	for _, cse := range cases {
		drive(cse.a, cse.b)
		wantEq := switchsim.Bool(cse.a == cse.b)
		wantEqn := switchsim.Bool(cse.a != cse.b)
		if got := s.GetLane("eq", 0); got != wantEq {
			t.Errorf("cmp(%d,%d): eq=%v want %v", cse.a, cse.b, got, wantEq)
		}
		if got := s.GetLane("eqn", 0); got != wantEqn {
			t.Errorf("cmp(%d,%d): eqn=%v want %v", cse.a, cse.b, got, wantEqn)
		}
	}
}

func TestRegisterFile(t *testing.T) {
	const words, bits = 4, 4
	c := RegisterFile(words, bits)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	rec, err := recognize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	// The shared read bitline channel-connects every cell in a bit
	// column (as in the SRAM array), so recognition sees one storage
	// loop per column holding all words' state nodes.
	if len(rec.Latches) != bits {
		t.Errorf("latches = %d, want %d (one per bit column)", len(rec.Latches), bits)
	}
	stateNodes := 0
	for _, l := range rec.Latches {
		stateNodes += len(l.StateNodes)
	}
	if stateNodes < words*bits {
		t.Errorf("state nodes = %d, want ≥%d", stateNodes, words*bits)
	}
	// Write strobes follow the clk_* convention and must be clocks.
	if !rec.IsClock(c.FindNode("clk_w0")) {
		t.Error("write strobe not recognized as a clock")
	}

	s, err := switchsim.NewPacked(c)
	if err != nil {
		t.Fatal(err)
	}
	setWord := func(w int, on bool) {
		for i := 0; i < words; i++ {
			s.SetQuietAll(fmt.Sprintf("clk_w%d", i), switchsim.Bool(on && i == w))
			s.SetQuietAll(fmt.Sprintf("clk_wn%d", i), switchsim.Bool(!(on && i == w)))
		}
	}
	selWord := func(w int) {
		for i := 0; i < words; i++ {
			s.SetQuietAll(fmt.Sprintf("rsel%d", i), switchsim.Bool(i == w))
			s.SetQuietAll(fmt.Sprintf("rseln%d", i), switchsim.Bool(i != w))
		}
	}
	write := func(w int, v uint64) {
		for b := 0; b < bits; b++ {
			s.SetQuietAll(fmt.Sprintf("d%d", b), switchsim.Bool(v>>uint(b)&1 == 1))
		}
		setWord(w, true)
		s.Settle()
		setWord(w, false)
		s.Settle()
	}
	read := func(w int) uint64 {
		selWord(w)
		s.Settle()
		var v uint64
		for b := 0; b < bits; b++ {
			if s.GetLane(fmt.Sprintf("q%d", b), 0) == switchsim.Hi {
				v |= 1 << uint(b)
			}
		}
		return v
	}
	// Control lines are never X in operation: deselect everything
	// before the first write.
	setWord(-1, false)
	selWord(-1)
	s.Settle()
	write(0, 0xa)
	write(1, 0x5)
	write(3, 0xf)
	if got := read(0); got != 0xa {
		t.Errorf("word0 = %#x, want 0xa", got)
	}
	if got := read(1); got != 0x5 {
		t.Errorf("word1 = %#x, want 0x5", got)
	}
	if got := read(3); got != 0xf {
		t.Errorf("word3 = %#x, want 0xf", got)
	}
	// Overwrite and re-read; word 1 must survive word 0's write.
	write(0, 0x3)
	if got := read(0); got != 0x3 {
		t.Errorf("word0 after rewrite = %#x, want 0x3", got)
	}
	if got := read(1); got != 0x5 {
		t.Errorf("word1 disturbed: %#x", got)
	}
}
