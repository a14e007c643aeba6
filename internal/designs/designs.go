// Package designs generates the synthetic full-custom workloads the
// toolkit's experiments run on.
//
// The paper's evaluation vehicles — ALPHA and StrongARM blocks — are
// proprietary, so per the reproduction's substitution rule this package
// builds open equivalents in the same circuit styles the paper names
// (§2): footed domino carry chains, static complementary gates,
// transmission-gate latches, pass-transistor muxes, SRAM/CAM arrays, and
// FCL RTL models of pipeline datapaths (including the §4.1 "2000 port
// CAM" in both native-primitive and gate-level-expanded form).
//
// Every generator is parametric so benches can sweep size.
package designs

import (
	"fmt"
	"strings"

	"repro/internal/netlist"
)

// sized device width constants (µm) for the 0.75 µm process family.
const (
	wInvN  = 2.0
	wInvP  = 4.0
	wStkN  = 4.0
	wStkP  = 6.0
	wDomN  = 6.0
	wPre   = 4.0
	wFoot  = 8.0
	wPass  = 4.0
	wWeakN = 1.0
	wWeakP = 2.0
	lMin   = 0.75
)

// AddInverter appends a static inverter to c.
func AddInverter(c *netlist.Circuit, name, in, out string, wn, wp float64) {
	c.NMOS(name+"_n", in, "vss", out, wn, lMin)
	c.PMOS(name+"_p", in, "vdd", out, wp, lMin)
}

// AddNAND2 appends a static 2-input NAND.
func AddNAND2(c *netlist.Circuit, name, a, b, y string) {
	mid := name + "_m"
	c.NMOS(name+"_na", a, mid, y, wStkN, lMin)
	c.NMOS(name+"_nb", b, "vss", mid, wStkN, lMin)
	c.PMOS(name+"_pa", a, "vdd", y, wStkP, lMin)
	c.PMOS(name+"_pb", b, "vdd", y, wStkP, lMin)
}

// AddXOR2 appends a static complementary XOR (y = a ⊕ b) given both
// polarities of the inputs.
func AddXOR2(c *netlist.Circuit, name, a, an, b, bn, y string) {
	x1, x2, x3 := name+"_x1", name+"_x2", name+"_x3"
	c.NMOS(name+"_n1", a, x1, y, wStkN, lMin)
	c.NMOS(name+"_n2", b, "vss", x1, wStkN, lMin)
	c.NMOS(name+"_n3", an, x2, y, wStkN, lMin)
	c.NMOS(name+"_n4", bn, "vss", x2, wStkN, lMin)
	c.PMOS(name+"_p1", a, "vdd", x3, wStkP, lMin)
	c.PMOS(name+"_p2", b, "vdd", x3, wStkP, lMin)
	c.PMOS(name+"_p3", an, x3, y, wStkP, lMin)
	c.PMOS(name+"_p4", bn, x3, y, wStkP, lMin)
}

// AddTGLatch appends a transmission-gate latch with weak keeper:
// d →(ck/ckn)→ m → q, weak feedback q → m.
func AddTGLatch(c *netlist.Circuit, name, d, ck, ckn, q string) {
	m := name + "_m"
	c.NMOS(name+"_pn", ck, d, m, wPass, lMin)
	c.PMOS(name+"_pp", ckn, d, m, wPass, lMin)
	AddInverter(c, name+"_fwd", m, q, wInvN, wInvP)
	c.NMOS(name+"_fbn", q, "vss", m, wWeakN, lMin)
	c.PMOS(name+"_fbp", q, "vdd", m, wWeakP, lMin)
}

// AddDominoCarry appends one footed domino Manchester-style carry gate:
// cout = g | (p & cin), built as precharged node + output buffer. The
// clock clk precharges low-phase and evaluates high-phase.
func AddDominoCarry(c *netlist.Circuit, name, g, p, cin, clk, cout string) {
	dyn := name + "_dyn"
	x1 := name + "_x1"
	foot := name + "_foot"
	c.PMOS(name+"_pre", clk, "vdd", dyn, wPre, lMin)
	// Generate branch: g discharges through the foot.
	c.NMOS(name+"_ng", g, foot, dyn, wDomN, lMin)
	// Propagate branch: p & cin in series.
	c.NMOS(name+"_np", p, x1, dyn, wDomN, lMin)
	c.NMOS(name+"_nc", cin, foot, x1, wDomN, lMin)
	// Shared clocked foot.
	c.NMOS(name+"_nf", clk, "vss", foot, wFoot, lMin)
	// Domino output buffer.
	AddInverter(c, name+"_buf", dyn, cout, wInvN, wInvP)
	// Weak keeper holds the dynamic node through the evaluate window.
	c.PMOS(name+"_keep", cout, "vdd", dyn, wWeakN, 1.5*lMin)
}

// InverterChain returns a chain of n inverters from "in" to "out".
func InverterChain(n int) *netlist.Circuit {
	c := netlist.New(fmt.Sprintf("invchain%d", n))
	c.DeclarePort("in")
	prev := "in"
	for i := 0; i < n; i++ {
		next := fmt.Sprintf("n%d", i)
		if i == n-1 {
			next = "out"
		}
		AddInverter(c, fmt.Sprintf("u%d", i), prev, next, wInvN, wInvP)
		prev = next
	}
	c.DeclarePort("out")
	return c
}

// DominoAdder returns an n-bit adder in the ALPHA style: static P/G
// generation (XOR/NAND), a footed-domino Manchester carry chain clocked
// by phi1, and static XOR sum gates. Ports: a0..a(n-1), b0..b(n-1),
// cin, phi1 → s0..s(n-1), cout.
func DominoAdder(n int) *netlist.Circuit {
	c := netlist.New(fmt.Sprintf("domino_adder%d", n))
	for i := 0; i < n; i++ {
		c.DeclarePort(fmt.Sprintf("a%d", i))
		c.DeclarePort(fmt.Sprintf("b%d", i))
	}
	c.DeclarePort("cin")
	c.DeclarePort("phi1")
	carry := "cin"
	for i := 0; i < n; i++ {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		an, bn := fmt.Sprintf("an%d", i), fmt.Sprintf("bn%d", i)
		g, p, pn := fmt.Sprintf("g%d", i), fmt.Sprintf("p%d", i), fmt.Sprintf("pn%d", i)
		gn := fmt.Sprintf("gn%d", i)
		AddInverter(c, "ia"+itoa(i), a, an, wInvN, wInvP)
		AddInverter(c, "ib"+itoa(i), b, bn, wInvN, wInvP)
		// p = a ⊕ b ; g = a & b (NAND + INV).
		AddXOR2(c, "xp"+itoa(i), a, an, b, bn, p)
		AddInverter(c, "ipn"+itoa(i), p, pn, wInvN, wInvP)
		AddNAND2(c, "ng"+itoa(i), a, b, gn)
		AddInverter(c, "ig"+itoa(i), gn, g, wInvN, wInvP)
		// Carry gate.
		cnext := fmt.Sprintf("c%d", i+1)
		if i == n-1 {
			cnext = "cout"
		}
		AddDominoCarry(c, "mc"+itoa(i), g, p, carry, "phi1", cnext)
		// Sum: s = p ⊕ c (needs carry complement).
		cn := fmt.Sprintf("cn%d", i)
		AddInverter(c, "ic"+itoa(i), carry, cn, wInvN, wInvP)
		s := fmt.Sprintf("s%d", i)
		AddXOR2(c, "xs"+itoa(i), p, pn, carry, cn, s)
		c.DeclarePort(s)
		carry = cnext
	}
	c.DeclarePort("cout")
	return c
}

// LatchPipeline returns k alternating phi1/phi2 transmission-gate latch
// stages separated by inverter pairs — the clean two-phase pipeline of
// Figure 4. If racy is true, every latch is clocked by phi1, creating
// the same-phase race the timing verifier must catch.
func LatchPipeline(k int, racy bool) *netlist.Circuit {
	name := "pipe"
	if racy {
		name = "racy_pipe"
	}
	c := netlist.New(fmt.Sprintf("%s%d", name, k))
	c.DeclarePort("d")
	prev := "d"
	for i := 0; i < k; i++ {
		ck, ckn := "phi1", "phi1_n"
		if !racy && i%2 == 1 {
			ck, ckn = "phi2", "phi2_n"
		}
		// Clocks are part of the cell's interface (DeclarePort is
		// idempotent); leaving them undeclared reads as floating gates
		// to the linter.
		c.DeclarePort(ck)
		c.DeclarePort(ckn)
		q := fmt.Sprintf("q%d", i)
		AddTGLatch(c, fmt.Sprintf("l%d", i), prev, ck, ckn, q)
		// One inverter pair of logic between stages.
		b1 := fmt.Sprintf("b%da", i)
		b2 := fmt.Sprintf("b%db", i)
		AddInverter(c, fmt.Sprintf("u%da", i), q, b1, wInvN, wInvP)
		AddInverter(c, fmt.Sprintf("u%db", i), b1, b2, wInvN, wInvP)
		prev = b2
	}
	c.DeclarePort(prev)
	return c
}

// SRAMCell appends a 6T cell with the given bit/word lines.
func SRAMCell(c *netlist.Circuit, name, wl, bl, blb string, extraL float64) {
	q, qn := name+"_q", name+"_qn"
	add := func(dev *netlist.Device) { dev.ExtraL = extraL }
	add(c.NMOS(name+"_n1", qn, "vss", q, wInvN, lMin))
	add(c.PMOS(name+"_p1", qn, "vdd", q, wInvP/2, lMin))
	add(c.NMOS(name+"_n2", q, "vss", qn, wInvN, lMin))
	add(c.PMOS(name+"_p2", q, "vdd", qn, wInvP/2, lMin))
	add(c.NMOS(name+"_a1", wl, bl, q, wPass, lMin))
	add(c.NMOS(name+"_a2", wl, blb, qn, wPass, lMin))
}

// SRAMArray returns a words×bits cell array with shared bit/word lines.
// extraL applies the §3 channel lengthening to every array device.
func SRAMArray(words, bitsPerWord int, extraL float64) *netlist.Circuit {
	c := netlist.New(fmt.Sprintf("sram%dx%d", words, bitsPerWord))
	for w := 0; w < words; w++ {
		wl := fmt.Sprintf("wl%d", w)
		c.DeclarePort(wl)
		for b := 0; b < bitsPerWord; b++ {
			bl, blb := fmt.Sprintf("bl%d", b), fmt.Sprintf("blb%d", b)
			if w == 0 {
				c.DeclarePort(bl)
				c.DeclarePort(blb)
			}
			SRAMCell(c, fmt.Sprintf("cell_%d_%d", w, b), wl, bl, blb, extraL)
		}
	}
	return c
}

// PassMux returns an n-way transmission-gate mux (one-hot selects)
// with a static output buffer: in0..in(n-1), s0..s(n-1), sn0.. → y.
func PassMux(n int) *netlist.Circuit {
	c := netlist.New(fmt.Sprintf("tgmux%d", n))
	for i := 0; i < n; i++ {
		in := fmt.Sprintf("in%d", i)
		s, sn := fmt.Sprintf("s%d", i), fmt.Sprintf("sn%d", i)
		c.DeclarePort(in)
		c.DeclarePort(s)
		c.DeclarePort(sn)
		c.NMOS(fmt.Sprintf("tn%d", i), s, in, "m", wPass, lMin)
		c.PMOS(fmt.Sprintf("tp%d", i), sn, in, "m", wPass, lMin)
	}
	AddInverter(c, "ob1", "m", "mb", wInvN, wInvP)
	AddInverter(c, "ob2", "mb", "y", wInvN, wInvP)
	c.DeclarePort("y")
	return c
}

// itoa is strconv.Itoa sugar kept local for generator-name brevity.
func itoa(i int) string { return fmt.Sprintf("%d", i) }

// PipelineRTL returns the FCL source of a small two-phase pipelined
// datapath — the RTL-simulation workload for the S1 throughput
// experiment. It is a 16-bit, 8-register machine executing a tiny ALU
// ISA from a 64-word instruction memory, with conditional clocking on
// the writeback stage (§3) and a CAM-based 16-entry translation buffer
// on the load path.
func PipelineRTL() string {
	return `
module top(run -> pc_out[6], result[16], tlb_hit)
# Architectural state.
reg pc[6] @phi1
reg ir[16] @phi1
mem imem 64 16
mem regs 8 16
cam tlb 16 10

# Fetch (phi1): pc advances while running.
on phi1 if run: pc <= pc + 1

# Decode fields of ir: [15:13]=op [12:10]=rd [9:7]=ra [6:4]=rb [3:0]=imm
wire op[3]
wire rd[3]
wire ra[3]
wire rb[3]
wire imm[4]
assign op = ir[15:13]
assign rd = ir[12:10]
assign ra = ir[9:7]
assign rb = ir[6:4]
assign imm = ir[3:0]

# Register read.
wire va[16]
wire vb[16]
assign va = regs[ra]
assign vb = regs[rb]

# Execute.
wire alu[16]
assign alu = (op == 0) ? va + vb : (op == 1) ? va - vb : (op == 2) ? (va & vb) : (op == 3) ? (va | vb) : (op == 4) ? (va ^ vb) : (op == 5) ? (va << 1) : {vb[11:0], imm}

# TLB lookup on the load path.
assign tlb_hit = tlb.hit(alu[9:0])

# Fetch on phi1 (same edge as the pc increment: both see the old pc,
# so instruction 0 executes first); write back on phi2 under condition
# (conditional clocking: no write for op 7 / branches).
on phi1 if run: ir <= imem[pc]
on phi2 if run & (op != 7): regs[rd] <= alu

assign pc_out = pc
assign result = alu
endmodule
`
}

// CamNativeRTL returns FCL source using the native CAM primitive with
// the given port count (depth) — the §4.1 structure "just difficult to
// code in standard languages".
func CamNativeRTL(depth int) string {
	return fmt.Sprintf(`
module top(key[16], waddr[%d], wdata[16], we -> hit)
cam tags %d 16
on phi1 if we: tags[waddr] <= wdata
assign hit = tags.hit(key)
endmodule
`, addrBits(depth), depth)
}

// CamExpandedRTL returns FCL source for the same CAM built the way a
// standard HDL forces: a memory plus an explicit per-entry comparator
// tree (here unrolled, since FCL — like the RTL languages the paper
// complains about — has no dynamic iteration over entries).
func CamExpandedRTL(depth int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module top(key[16], waddr[%d], wdata[16], we -> hit)\n", addrBits(depth))
	fmt.Fprintf(&b, "mem tags %d 16\n", depth)
	fmt.Fprintf(&b, "mem valid %d 1\n", depth)
	fmt.Fprintf(&b, "on phi1 if we: tags[waddr] <= wdata\n")
	fmt.Fprintf(&b, "on phi1 if we: valid[waddr] <= 1\n")
	// Comparator per entry, then an OR reduction tree.
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "wire m%d\n", i)
		fmt.Fprintf(&b, "assign m%d = valid[%d] & (tags[%d] == key)\n", i, i, i)
	}
	// Binary OR tree.
	level := make([]string, depth)
	for i := range level {
		level[i] = fmt.Sprintf("m%d", i)
	}
	gen := 0
	for len(level) > 1 {
		var next []string
		for i := 0; i+1 < len(level); i += 2 {
			w := fmt.Sprintf("or%d_%d", gen, i/2)
			fmt.Fprintf(&b, "wire %s\n", w)
			fmt.Fprintf(&b, "assign %s = %s | %s\n", w, level[i], level[i+1])
			next = append(next, w)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		gen++
	}
	fmt.Fprintf(&b, "assign hit = %s\n", level[0])
	fmt.Fprintf(&b, "endmodule\n")
	return b.String()
}

// addrBits returns the address width for a depth.
func addrBits(depth int) int {
	b := 1
	for (1 << uint(b)) < depth {
		b++
	}
	return b
}

// Mod5CounterRTL and Mod5RingRTL are the §4.1 equivalence example pair.
func Mod5CounterRTL() string {
	return `
module top(tick -> fire)
reg cnt[3] @phi1
on phi1 if tick: cnt <= (cnt == 4) ? 0 : cnt + 1
assign fire = tick & (cnt == 4)
endmodule
`
}

// Mod5RingRTL is the shift-register re-encoding of Mod5CounterRTL.
func Mod5RingRTL() string {
	return `
module top(tick -> fire)
reg ring[5] @phi1 = 1
on phi1 if tick: ring <= {ring[3:0], ring[4]}
assign fire = tick & ring[4]
endmodule
`
}

// AdderRTL returns FCL for an n-bit adder (RTL reference for the domino
// adder's equivalence and shadow checks). A phi1-registered copy of the
// sum gives the design a clock phase so shadow-mode simulation can bind
// the circuit's precharge clock. Ports a,b,cin → s, cout, sreg.
func AdderRTL(n int) string {
	return fmt.Sprintf(`
module top(a[%d], b[%d], cin -> s[%d], cout, sreg[%d])
wire t[%d]
reg sr[%d] @phi1
assign t = {0, a} + {0, b} + {0, cin}
assign s = t[%d:0]
assign cout = t[%d]
on phi1: sr <= s
assign sreg = sr
endmodule
`, n, n, n, n, n+1, n, n-1, n)
}

// PipelineRTLAlwaysClocked is PipelineRTL with conditional clocking
// removed: every register and the register file clock every cycle, as a
// naive implementation would. The A1 ablation compares the two.
func PipelineRTLAlwaysClocked() string {
	src := PipelineRTL()
	src = strings.ReplaceAll(src, "on phi1 if run: pc <= pc + 1",
		"on phi1: pc <= run ? pc + 1 : pc")
	src = strings.ReplaceAll(src, "on phi1 if run: ir <= imem[pc]",
		"on phi1: ir <= run ? imem[pc] : ir")
	src = strings.ReplaceAll(src, "on phi2 if run & (op != 7): regs[rd] <= alu",
		"on phi2: regs[rd] <= (run & (op != 7)) ? alu : regs[rd]")
	return src
}

// DCVSLComparator returns an n-bit equality comparator in differential
// cascode voltage switch logic (§2's "differential cascode voltage swing
// logic (DCVSL)"): per-bit dual-rail XOR/XNOR stages with cross-coupled
// PMOS pull-ups, merged by a dual-rail NOR tree. Ports: a0.., an0..,
// b0.., bn0.. (true/complement input rails) → eq, eqn.
//
// DCVSL sizing discipline: every NMOS tree decisively overpowers the
// cross-coupled keepers, or the gate cannot switch.
func DCVSLComparator(n int) *netlist.Circuit {
	c := netlist.New(fmt.Sprintf("dcvsl_cmp%d", n))
	const (
		wTree = 12.0
		wKeep = 4.0
	)
	// Per-bit dual-rail XNOR: x_i high when a_i == b_i.
	for i := 0; i < n; i++ {
		a, an := fmt.Sprintf("a%d", i), fmt.Sprintf("an%d", i)
		b, bn := fmt.Sprintf("b%d", i), fmt.Sprintf("bn%d", i)
		for _, p := range []string{a, an, b, bn} {
			c.DeclarePort(p)
		}
		x, xn := fmt.Sprintf("x%d", i), fmt.Sprintf("xn%d", i)
		// Cross-coupled pull-ups.
		c.PMOS(fmt.Sprintf("cp%d_1", i), xn, "vdd", x, wKeep, lMin)
		c.PMOS(fmt.Sprintf("cp%d_2", i), x, "vdd", xn, wKeep, lMin)
		// x pulled low when a≠b: (a & bn) | (an & b).
		m1, m2 := fmt.Sprintf("m%d_1", i), fmt.Sprintf("m%d_2", i)
		c.NMOS(fmt.Sprintf("nd%d_1", i), a, m1, x, wTree, lMin)
		c.NMOS(fmt.Sprintf("nd%d_2", i), bn, "vss", m1, wTree, lMin)
		c.NMOS(fmt.Sprintf("nd%d_3", i), an, m2, x, wTree, lMin)
		c.NMOS(fmt.Sprintf("nd%d_4", i), b, "vss", m2, wTree, lMin)
		// xn pulled low when a==b: (a & b) | (an & bn).
		m3, m4 := fmt.Sprintf("m%d_3", i), fmt.Sprintf("m%d_4", i)
		c.NMOS(fmt.Sprintf("ne%d_1", i), a, m3, xn, wTree, lMin)
		c.NMOS(fmt.Sprintf("ne%d_2", i), b, "vss", m3, wTree, lMin)
		c.NMOS(fmt.Sprintf("ne%d_3", i), an, m4, xn, wTree, lMin)
		c.NMOS(fmt.Sprintf("ne%d_4", i), bn, "vss", m4, wTree, lMin)
	}
	// Dual-rail merge: eq = AND of all x_i. eq pulled low when any xn_i
	// high... dual-rail NOR/NAND: eq low when OR(xn_i); eqn low when
	// AND(x_i).
	c.DeclarePort("eq")
	c.DeclarePort("eqn")
	c.PMOS("cpo_1", "eqn", "vdd", "eq", wKeep, lMin)
	c.PMOS("cpo_2", "eq", "vdd", "eqn", wKeep, lMin)
	for i := 0; i < n; i++ {
		// eq low when any bit differs (xn_i high... the difference rail
		// is x_i low; use xn? x high means equal). eq pulled down by
		// any "difference" literal: gate = xn is wrong sense; a bit
		// differs when xn_i is... xn low means a==b. Use per-bit
		// "diff" rail: diff_i = NOT x_i is xn_i when rails settle, so
		// gate eq's pulldown with xn_i? xn_i is high when a≠b. Yes.
		c.NMOS(fmt.Sprintf("no%d", i), fmt.Sprintf("xn%d", i), "vss", "eq", wTree, lMin)
	}
	// eqn low when all bits equal: series chain of x_i.
	prev := "eqn"
	for i := 0; i < n; i++ {
		next := fmt.Sprintf("mo%d", i)
		if i == n-1 {
			next = "vss"
		}
		c.NMOS(fmt.Sprintf("na%d", i), fmt.Sprintf("x%d", i), next, prev, wTree, lMin)
		prev = next
	}
	return c
}

// RegisterFile returns a words×bits transistor-level register file:
// transmission-gate latch cells written by per-word write strobes
// (clk_w<w>) and read through a pass-mux per bit selected by rsel<w>
// one-hot lines, with buffered outputs. Ports: d<b>, clk_w<w>,
// clk_wn<w>, rsel<w>, rseln<w> → q<b>.
func RegisterFile(words, bits int) *netlist.Circuit {
	c := netlist.New(fmt.Sprintf("regfile%dx%d", words, bits))
	for b := 0; b < bits; b++ {
		c.DeclarePort(fmt.Sprintf("d%d", b))
	}
	for w := 0; w < words; w++ {
		c.DeclarePort(fmt.Sprintf("clk_w%d", w))
		c.DeclarePort(fmt.Sprintf("clk_wn%d", w))
		c.DeclarePort(fmt.Sprintf("rsel%d", w))
		c.DeclarePort(fmt.Sprintf("rseln%d", w))
	}
	for w := 0; w < words; w++ {
		ck := fmt.Sprintf("clk_w%d", w)
		ckn := fmt.Sprintf("clk_wn%d", w)
		for b := 0; b < bits; b++ {
			cell := fmt.Sprintf("c_%d_%d", w, b)
			q := fmt.Sprintf("q_%d_%d", w, b)
			AddTGLatch(c, cell, fmt.Sprintf("d%d", b), ck, ckn, q)
			// Read port: tgate from the cell output onto the bit line.
			bl := fmt.Sprintf("rbl%d", b)
			c.NMOS(cell+"_rn", fmt.Sprintf("rsel%d", w), q, bl, wPass, lMin)
			c.PMOS(cell+"_rp", fmt.Sprintf("rseln%d", w), q, bl, wPass, lMin)
		}
	}
	// AddTGLatch stores the complement (its q is ¬d), so a single
	// inverting read buffer restores the written polarity.
	for b := 0; b < bits; b++ {
		AddInverter(c, fmt.Sprintf("ob%d", b), fmt.Sprintf("rbl%d", b), fmt.Sprintf("q%d", b), wInvN, wInvP)
		c.DeclarePort(fmt.Sprintf("q%d", b))
	}
	return c
}

// DeepTree returns the deep-hierarchy workload for hierarchical
// incremental verification: a `levels`-deep library of static CMOS
// cells with `variants` distinct cells per level, rooted at the
// returned top cell. Leaves are inverter chains of variant-dependent
// length; every upper-level cell buffers its input and combines two
// instances of the *same* child variant (repeated instances — the
// memoization case) through a NAND, and the top NAND-reduces one
// instance of every last-level variant. The shape is deliberately
// parallel rather than chained, so the flat critical path stays within
// one clock period and fanout stays bounded: the whole corpus passes
// the verification battery clean in both the hierarchical and the
// whole-netlist view, which is what keeps the two byte-identical.
//
// tweak perturbs the width of one transistor in leaf variant 0 — the
// scripted "edit one leaf" workload: DeepTree(l, v, 0) and
// DeepTree(l, v, 0.1) differ in exactly one leaf cell, so a warm
// re-verify must miss only that leaf and its path to the root.
func DeepTree(levels, variants int, tweak float64) (*netlist.Library, string) {
	if levels < 1 {
		levels = 1
	}
	if variants < 1 {
		variants = 1
	}
	lib := netlist.NewLibrary()
	name := func(level, v int) string { return fmt.Sprintf("dt_l%d_v%d", level, v) }
	for v := 0; v < variants; v++ {
		c := netlist.New(name(0, v))
		c.DeclarePort("in")
		n := 24 + 2*v
		prev := "in"
		for i := 0; i < n; i++ {
			next := fmt.Sprintf("n%d", i)
			if i == n-1 {
				next = "out"
			}
			wn := wInvN
			if tweak != 0 && v == 0 && i == 0 {
				wn = wInvN * (1 + tweak)
			}
			AddInverter(c, fmt.Sprintf("u%d", i), prev, next, wn, wInvP)
			prev = next
		}
		c.DeclarePort("out")
		lib.Add(c)
	}
	for level := 1; level < levels; level++ {
		for v := 0; v < variants; v++ {
			c := netlist.New(name(level, v))
			c.DeclarePort("in")
			// Buffer pair isolates the parent's input load from the
			// two child fan-outs at every level of the tree.
			AddInverter(c, "u0a", "in", "ba", wInvN, wInvP)
			AddInverter(c, "u0b", "ba", "bb", wInvN, wInvP)
			child := name(level-1, v)
			c.AddInstance("xa", child, "bb", "ya")
			c.AddInstance("xb", child, "bb", "yb")
			AddNAND2(c, "g", "ya", "yb", "n1")
			AddInverter(c, "u1", "n1", "out", wInvN, wInvP)
			c.DeclarePort("out")
			lib.Add(c)
		}
	}
	// reduce buffers cell's input and NAND-tree-reduces one instance of
	// every listed child into out.
	reduce := func(cell *netlist.Circuit, children []string) {
		cell.DeclarePort("in")
		AddInverter(cell, "u0a", "in", "ba", wInvN, wInvP)
		AddInverter(cell, "u0b", "ba", "bb", wInvN, wInvP)
		outs := make([]string, len(children))
		for i, ch := range children {
			outs[i] = fmt.Sprintf("t%d", i)
			cell.AddInstance(fmt.Sprintf("x%d", i), ch, "bb", outs[i])
		}
		for r := 0; len(outs) > 1; r++ {
			var next []string
			for i := 0; i+1 < len(outs); i += 2 {
				y := fmt.Sprintf("r%d_%d", r, i/2)
				AddNAND2(cell, fmt.Sprintf("nr%d_%d", r, i/2), outs[i], outs[i+1], y)
				next = append(next, y)
			}
			if len(outs)%2 == 1 {
				next = append(next, outs[len(outs)-1])
			}
			outs = next
		}
		AddInverter(cell, "uo", outs[0], "out", wInvN, wInvP)
		cell.DeclarePort("out")
	}

	last := levels - 1
	kids := make([]string, variants)
	for v := 0; v < variants; v++ {
		kids[v] = name(last, v)
	}
	// Wide corpora get an intermediate join layer so the top's fan-in —
	// and with it the scope a one-leaf edit forces the root path to
	// re-verify — stays narrow.
	const joinGroup = 4
	if variants > joinGroup {
		var joins []string
		for j := 0; j*joinGroup < variants; j++ {
			lo := j * joinGroup
			hi := lo + joinGroup
			if hi > variants {
				hi = variants
			}
			join := netlist.New(fmt.Sprintf("dt_join%d", j))
			reduce(join, kids[lo:hi])
			lib.Add(join)
			joins = append(joins, join.Name)
		}
		kids = joins
	}
	top := netlist.New("dt_top")
	reduce(top, kids)
	lib.Add(top)
	return lib, "dt_top"
}
