package recognize

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// updatePin rewrites the recognition pin instead of checking it:
//
//	go test ./internal/recognize -run TestRecognitionPin -update
var updatePin = flag.Bool("update", false, "rewrite testdata/recognition.pin from the current code")

const pinFile = "testdata/recognition.pin"

// pinDesign is one circuit whose recognition the pin fixes.
type pinDesign struct {
	name string
	c    *netlist.Circuit
}

// pinCorpus returns every circuit the recognition pin covers: each
// batch-cold family at the ends of its perfbench slot ranges (the four
// SRAM and four register-file arrays at their fixed sizes), a flattened
// DeepTree(3, 20), a domino gate and an adder whose clocks are found
// only by functional inference, and every cell of the example decks.
func pinCorpus(t testing.TB) []pinDesign {
	t.Helper()
	var out []pinDesign
	add := func(name string, c *netlist.Circuit) {
		out = append(out, pinDesign{name, c})
	}
	for _, n := range []int{8, 15, 16, 23, 24, 31, 32, 47, 48, 63, 64, 80} {
		add(fmt.Sprintf("invchain%d", n), designs.InverterChain(n))
	}
	for _, n := range []int{4, 6, 7, 9, 10, 12, 13, 15, 16, 18} {
		add(fmt.Sprintf("adder%d", n), designs.DominoAdder(n))
	}
	for _, n := range []int{4, 5, 6, 7, 8, 9, 10, 11} {
		add(fmt.Sprintf("pipe%d", n), designs.LatchPipeline(n, false))
	}
	for _, n := range []int{4, 5, 6, 7, 8, 9, 10, 12} {
		add(fmt.Sprintf("racypipe%d", n), designs.LatchPipeline(n, true))
	}
	for _, n := range []int{4, 7, 8, 11, 12, 15} {
		add(fmt.Sprintf("passmux%d", n), designs.PassMux(n))
	}
	for _, n := range []int{4, 7, 8, 11, 12, 16} {
		add(fmt.Sprintf("dcvsl%d", n), designs.DCVSLComparator(n))
	}
	for _, wb := range [][2]int{{4, 4}, {8, 4}, {12, 4}, {16, 8}} {
		add(fmt.Sprintf("sram%dx%d", wb[0], wb[1]), designs.SRAMArray(wb[0], wb[1], 0.09))
	}
	for _, wb := range [][2]int{{2, 4}, {4, 4}, {4, 8}, {8, 8}} {
		add(fmt.Sprintf("regfile%dx%d", wb[0], wb[1]), designs.RegisterFile(wb[0], wb[1]))
	}

	lib, top := designs.DeepTree(3, 20, 0)
	flat, err := lib.Flatten(top)
	if err != nil {
		t.Fatal(err)
	}
	add("deeptree3x20", flat)

	add("domino_en_q", buildDomino("en_q"))
	add("adder4_en_q", renameNet(designs.DominoAdder(4), "phi1", "en_q"))
	add("adder16_en_q", renameNet(designs.DominoAdder(16), "phi1", "en_q"))

	decks, err := filepath.Glob("../../examples/decks/*.sp")
	if err != nil || len(decks) == 0 {
		t.Fatalf("no example decks found (%v)", err)
	}
	for _, path := range decks {
		lib, top, err := netlist.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		deck := strings.TrimSuffix(filepath.Base(path), ".sp")
		for _, cell := range lib.Cells() {
			c, err := lib.Flatten(cell)
			if err != nil {
				t.Fatal(err)
			}
			add(deck+"/"+cell, c)
		}
		if len(top.Devices) > 0 || len(top.Instances) > 0 {
			lib.Add(top)
			c, err := lib.Flatten(top.Name)
			if err != nil {
				t.Fatal(err)
			}
			add(deck+"/"+top.Name, c)
		}
	}
	return out
}

// renameNet returns a copy of c's nodes, ports and devices, which is
// all recognition reads, with one net renamed. Node IDs, port order and
// device order are preserved.
func renameNet(c *netlist.Circuit, from, to string) *netlist.Circuit {
	name := func(id netlist.NodeID) string {
		if n := c.NodeName(id); n != from {
			return n
		}
		return to
	}
	out := netlist.New(c.Name)
	for id := range c.Nodes {
		out.Node(name(netlist.NodeID(id)))
	}
	for _, p := range c.Ports {
		out.DeclarePort(name(p))
	}
	for _, d := range c.Devices {
		out.AddDevice(d.Name, d.Type, name(d.Gate), name(d.Source), name(d.Drain), name(d.Bulk), d.W, d.L)
	}
	return out
}

// dumpResult renders every recognition output in a canonical text form:
// groups with their node lists, family, clocks, footing and per-output
// functions and flags; then the circuit-level clocks, dynamic nodes,
// state nodes, latches and driver map.
func dumpResult(r *Result) string {
	c := r.Circuit
	var sb strings.Builder
	names := func(ids []netlist.NodeID) string {
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = c.NodeName(id)
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	str := func(e logic.Expr) string {
		if e == nil {
			return "<nil>"
		}
		return e.String()
	}
	for _, g := range r.Groups {
		devs := make([]string, len(g.Devices))
		for i, d := range g.Devices {
			devs[i] = d.Name
		}
		fmt.Fprintf(&sb, "group %d family=%s footed=%v devices=[%s]\n", g.Index, g.Family, g.Footed, strings.Join(devs, " "))
		fmt.Fprintf(&sb, "  internal=%s outputs=%s inputs=%s channel=%s clocks=%s\n",
			names(g.Internal), names(g.Outputs), names(g.Inputs), names(g.ChannelInputs), names(g.ClockNets))
		for _, f := range g.Funcs {
			fmt.Fprintf(&sb, "  func %s up=%s down=%s fn=%s comp=%v float=%v fight=%v\n",
				c.NodeName(f.Node), str(f.PullUp), str(f.PullDown), str(f.Function),
				f.Complementary, f.CanFloat, f.CanFight)
		}
	}
	fmt.Fprintf(&sb, "clocks=%s\ndynamic=%s\nstate=%s\n", names(r.Clocks), names(r.DynamicNodes), names(r.StateNodes))
	for _, l := range r.Latches {
		fmt.Fprintf(&sb, "latch groups=%v state=%s clocks=%s static=%v\n", l.Groups, names(l.StateNodes), names(l.Clocks), l.Static)
	}
	fmt.Fprintf(&sb, "groupOfDevice=%v\n", r.GroupOfDevice)
	driven := make([]netlist.NodeID, 0, len(r.DriverOf))
	for id := range r.DriverOf {
		driven = append(driven, id)
	}
	sortNodes(driven)
	for _, id := range driven {
		fmt.Fprintf(&sb, "driver %s=%d\n", c.NodeName(id), r.DriverOf[id])
	}
	return sb.String()
}

// TestRecognitionPin fixes recognition's complete output on the pin
// corpus: one sha256 per design of dumpResult, so any change to a
// group, family, function string, flag, clock, dynamic or state node
// or latch fails and names the design.
func TestRecognitionPin(t *testing.T) {
	got := make(map[string]string)
	var order []string
	for _, d := range pinCorpus(t) {
		r := analyze(t, d.c)
		sum := sha256.Sum256([]byte(dumpResult(r)))
		if _, dup := got[d.name]; dup {
			t.Fatalf("duplicate pin design %s", d.name)
		}
		got[d.name] = hex.EncodeToString(sum[:])
		order = append(order, d.name)
	}
	if *updatePin {
		var sb strings.Builder
		sb.WriteString("# sha256 of the canonical recognize.Result dump, one design per line.\n")
		sb.WriteString("# Regenerate: go test ./internal/recognize -run TestRecognitionPin -update\n")
		for _, name := range order {
			fmt.Fprintf(&sb, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(pinFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed pin line %q", line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: not in %s", name, pinFile)
		case w != got[name]:
			t.Errorf("%s: recognition changed (dump sha256 %s, pinned %s)", name, got[name], w)
		}
	}
	var stale []string
	for name := range want {
		if _, ok := got[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("%s: pinned but no longer in the corpus", name)
	}
}

// TestOutputFlagsMatchTruthTables checks every output flag on the pin
// corpus against exhaustive truth tables: for outputs whose pull-up and
// pull-down mention at most 12 variables, Complementary, CanFloat and
// CanFight must equal what enumeration of logic.TableFromExpr gives.
func TestOutputFlagsMatchTruthTables(t *testing.T) {
	checked := 0
	for _, d := range pinCorpus(t) {
		r := analyze(t, d.c)
		for _, g := range r.Groups {
			for _, f := range g.Funcs {
				vars := varUnion(f.PullUp, f.PullDown)
				if len(vars) > 12 {
					continue
				}
				up, err := logic.TableFromExpr(f.PullUp, vars)
				if err != nil {
					t.Fatal(err)
				}
				down, err := logic.TableFromExpr(f.PullDown, vars)
				if err != nil {
					t.Fatal(err)
				}
				comp, float, fight := true, false, false
				for i := 0; i < up.Rows(); i++ {
					u, dn := up.Get(i), down.Get(i)
					comp = comp && u != dn
					float = float || (!u && !dn)
					fight = fight || (u && dn)
				}
				if f.Complementary != comp || f.CanFloat != float || f.CanFight != fight {
					t.Errorf("%s %s: flags comp=%v float=%v fight=%v, truth tables give %v %v %v (up=%s down=%s)",
						d.name, d.c.NodeName(f.Node), f.Complementary, f.CanFloat, f.CanFight,
						comp, float, fight, f.PullUp, f.PullDown)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no outputs checked")
	}
}

// varUnion returns the sorted distinct variables named by either
// expression.
func varUnion(a, b logic.Expr) []string {
	vars := append(logic.Vars(a), logic.Vars(b)...)
	sort.Strings(vars)
	return slices.Compact(vars)
}
