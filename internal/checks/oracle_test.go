package checks

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/recognize"
)

// runEach concatenates Run over CheckNames(): every finding of the
// battery, passes included, in battery order.
func runEach(t testing.TB, r *recognize.Result, sigs *netlist.Signatures, opt Options) []Finding {
	t.Helper()
	var all []Finding
	for _, name := range CheckNames() {
		fs, err := Run(name, r, sigs, opt)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, fs...)
	}
	return all
}

// oracleReport is the report RunAll must give, built from the findings
// runEach returns: the non-pass ones in order, and every check's
// verdict tally.
func oracleReport(all []Finding) *Report {
	rep := &Report{ByCheck: make(map[string]map[Verdict]int)}
	for _, name := range CheckNames() {
		rep.ByCheck[name] = map[Verdict]int{}
	}
	for _, f := range all {
		rep.ByCheck[f.Check][f.Verdict]++
		if f.Verdict != Pass {
			rep.Findings = append(rep.Findings, f)
		}
	}
	return rep
}

// figure3Options is opts() with Figure 3's extracted couplings and a
// set of antenna ratios; nodes a design does not have are skipped.
func figure3Options() Options {
	o := opts()
	o.Couplings = []Coupling{
		{Victim: "mc3_dyn", Aggressor: "bus_a", CapFF: 6},
		{Victim: "mc5_dyn", Aggressor: "bus_b", CapFF: 3},
		{Victim: "s4", Aggressor: "bus_a", CapFF: 6},
	}
	o.AntennaRatios = map[string]float64{"s6": 900, "c2": 300, "mc1_dyn": 450}
	return o
}

// oracleCorpus returns every designs generator at two sizes and every
// cell and live top-level soup of the example decks, flattened.
func oracleCorpus(t *testing.T) map[string]*netlist.Circuit {
	t.Helper()
	out := map[string]*netlist.Circuit{}
	for _, n := range []int{8, 16} {
		out[fmt.Sprintf("invchain%d", n)] = designs.InverterChain(n)
		out[fmt.Sprintf("adder%d", n)] = designs.DominoAdder(n)
		out[fmt.Sprintf("passmux%d", n)] = designs.PassMux(n)
		out[fmt.Sprintf("dcvsl%d", n)] = designs.DCVSLComparator(n)
	}
	for _, k := range []int{4, 8} {
		out[fmt.Sprintf("pipe%d", k)] = designs.LatchPipeline(k, false)
		out[fmt.Sprintf("racypipe%d", k)] = designs.LatchPipeline(k, true)
		out[fmt.Sprintf("sram%dx4", k)] = designs.SRAMArray(k, 4, 0.09)
		out[fmt.Sprintf("regfile%dx4", k)] = designs.RegisterFile(k, 4)
	}
	for _, levels := range []int{2, 3} {
		lib, top := designs.DeepTree(levels, 4, 0)
		flat, err := lib.Flatten(top)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("deeptree%dx4", levels)] = flat
	}
	decks, err := filepath.Glob("../../examples/decks/*.sp")
	if err != nil || len(decks) == 0 {
		t.Fatalf("example decks: %v (%d found)", err, len(decks))
	}
	for _, path := range decks {
		lib, top, err := netlist.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(top.Devices) > 0 || len(top.Instances) > 0 || len(top.Resistors) > 0 {
			lib.Add(top)
		}
		deck := strings.TrimSuffix(filepath.Base(path), ".sp")
		for _, cell := range lib.Cells() {
			c, err := lib.Flatten(cell)
			if err != nil {
				t.Fatal(err)
			}
			out[deck+"/"+cell] = c
		}
	}
	return out
}

// TestRunAllMatchesRun holds the battery to per-check Run: RunAll keeps
// exactly the non-pass findings of Run over every check, in battery
// order and with the same detail, ID and evidence, and its per-check
// tallies count every finding Run returns, passes included. A kept
// finding's "#n" suffix must count the passes before it, and every
// kept finding carries a detail, an ID and evidence.
func TestRunAllMatchesRun(t *testing.T) {
	o := figure3Options()
	var kept, passes int
	for name, c := range oracleCorpus(t) {
		r := rec(t, c)
		sigs := netlist.ComputeSignatures(c)
		got, err := RunAll(r, sigs, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := oracleReport(runEach(t, r, sigs, o))
		if !reflect.DeepEqual(got.Findings, want.Findings) {
			t.Errorf("%s: RunAll findings differ from per-check Run's non-pass findings\n got: %v\nwant: %v",
				name, ids(got.Findings), ids(want.Findings))
		}
		if !reflect.DeepEqual(got.ByCheck, want.ByCheck) {
			t.Errorf("%s: ByCheck = %v, want %v", name, got.ByCheck, want.ByCheck)
		}
		for _, f := range got.Findings {
			if f.Detail == "" || f.ID == "" || f.Evidence.Unit != "margin" {
				t.Errorf("%s: kept finding %s on %s lacks its detail, ID or evidence: %+v", name, f.Check, f.Subject, f)
			}
		}
		p, _, _ := got.Counts()
		kept += len(got.Findings)
		passes += p
	}
	if kept == 0 || passes == 0 {
		t.Errorf("corpus kept %d findings and passed %d: the oracle needs both", kept, passes)
	}
}

// ids lists the findings' IDs.
func ids(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.ID
	}
	return out
}

// TestKeptIDCountsPasses: the outputs of two identical inverters share a
// base ID. With an antenna ratio that passes on the first and one that
// violates on the second, the battery keeps only the violation, and
// must still name it "#2", as Run does.
func TestKeptIDCountsPasses(t *testing.T) {
	c := netlist.New("twins")
	for _, k := range []string{"1", "2"} {
		c.DeclarePort("a" + k)
		addInv(c, "u"+k, "a"+k, "y"+k, 2, 4)
		c.DeclarePort("y" + k)
	}
	o := opts()
	o.AntennaRatios = map[string]float64{"y1": 100, "y2": 900}
	r := rec(t, c)
	all, err := run("antenna", r, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].Verdict != Pass || all[1].Verdict != Violation || all[1].ID != all[0].ID+"#2" {
		t.Fatalf("want a pass on y1 and a violation named after it with #2 on y2, got %+v", all)
	}
	rep, err := runAll(r, o)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, f := range rep.Findings {
		if f.Check == "antenna" {
			kept = append(kept, f.ID)
		}
	}
	if len(kept) != 1 || kept[0] != all[1].ID {
		t.Errorf("battery keeps antenna findings %v, want [%s]", kept, all[1].ID)
	}
	if want := (map[Verdict]int{Pass: 1, Violation: 1}); !reflect.DeepEqual(rep.ByCheck["antenna"], want) {
		t.Errorf("antenna tally %v, want %v", rep.ByCheck["antenna"], want)
	}
}
