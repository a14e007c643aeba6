package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/checks"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/fleet"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/process"
)

// FuzzFindingIDsRenameInvariant holds verification to the provenance
// contract on generated renamings: rebuilding a design with its nodes,
// devices and resistors in another order and every non-supply net and
// every device renamed moves neither its fingerprint nor, with or
// without the lint gate, its verdict, inspect load or sorted finding IDs
// (#n suffixes included). Every verification, original or renamed, also
// holds the battery to per-check checks.Run (batteryIDs). The input
// picks a design from the corpus, the root of every examples/decks deck
// and six generated designs, and seeds the reorder and the rename.
func FuzzFindingIDsRenameInvariant(f *testing.F) {
	corpus := renameCorpus(f)
	want := make([]string, len(corpus))
	for i, c := range corpus {
		want[i] = summarize(f, c)
		f.Add(uint8(i), uint64(i))
	}
	f.Fuzz(func(t *testing.T, design uint8, seed uint64) {
		i := int(design) % len(corpus)
		if got := summarize(t, scramble(corpus[i], seed)); got != want[i] {
			t.Fatalf("design %d, seed %d: renaming moved the outcome\n--- original ---\n%s--- renamed ---\n%s", i, seed, want[i], got)
		}
	})
}

// renameCorpus returns the flattened root of every examples/decks deck
// and six generated designs. Verification only reads a circuit, so each
// is verified once as the original and scrambled on every input.
func renameCorpus(tb testing.TB) []*netlist.Circuit {
	decks, err := filepath.Glob("../../examples/decks/*.sp")
	if err != nil || len(decks) == 0 {
		tb.Fatalf("example decks: %v (%d found)", err, len(decks))
	}
	var corpus []*netlist.Circuit
	for _, path := range decks {
		deck, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		items, err := fleet.ItemsFromDeck(bytes.NewReader(deck), path, "", false)
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		corpus = append(corpus, items[0].Circuit)
	}
	return append(corpus,
		designs.DominoAdder(8),
		designs.LatchPipeline(4, true),
		designs.RegisterFile(2, 2),
		designs.SRAMArray(4, 4, 0.09),
		designs.PassMux(4),
		designs.DCVSLComparator(4),
	)
}

// scramble rebuilds c with its nodes, devices and resistors in orders the
// seed draws, and every non-supply net and every device renamed. A rename
// keeps what the tools read from a name: supplies keep theirs, and a name
// keeps its base after the last "/" (recognize.clockName, timing.PhaseOf)
// while its directory becomes a label drawn per distinct directory, so
// names that shared one still do (dataflow's phi1/phi1_n complements).
// A name without a directory gains one.
func scramble(c *netlist.Circuit, seed uint64) *netlist.Circuit {
	rng := obs.NewRNG(int64(seed))
	tag := [...]string{"u", "net_", "Q", "x9_"}[rng.Intn(4)]
	split := func(name string) (dir, base string) {
		if i := strings.LastIndex(name, "/"); i >= 0 {
			return name[:i], name[i+1:]
		}
		return "", name
	}
	var dirs []string
	seen := make(map[string]bool)
	note := func(name string) {
		if dir, _ := split(name); !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, n := range c.Nodes {
		note(n.Name)
	}
	for _, d := range c.Devices {
		note(d.Name)
	}
	for _, r := range c.Resistors {
		note(r.Name)
	}
	label := make(map[string]string, len(dirs))
	for i, k := range perm(rng, len(dirs)) {
		label[dirs[i]] = fmt.Sprintf("%s%d", tag, k)
	}
	rename := func(name string) string {
		dir, base := split(name)
		return label[dir] + "/" + base
	}

	out := netlist.New(c.Name)
	out.Loc = c.Loc
	names := make([]string, len(c.Nodes))
	for _, id := range perm(rng, len(c.Nodes)) {
		n := c.Nodes[id]
		names[id] = n.Name
		if !c.IsSupply(netlist.NodeID(id)) {
			names[id] = rename(n.Name)
		}
		nid := out.Node(names[id])
		out.Nodes[nid].CapFF = n.CapFF
		for k, v := range n.Attrs {
			out.SetAttr(nid, k, v)
		}
	}
	for _, p := range c.Ports {
		out.DeclarePort(names[p])
	}
	for _, i := range perm(rng, len(c.Devices)) {
		d := c.Devices[i]
		nd := out.AddDevice(rename(d.Name), d.Type, names[d.Gate], names[d.Source], names[d.Drain], names[d.Bulk], d.W, d.L)
		nd.Vt, nd.ExtraL, nd.Loc = d.Vt, d.ExtraL, d.Loc
	}
	for _, i := range perm(rng, len(c.Resistors)) {
		r := c.Resistors[i]
		out.AddResistor(rename(r.Name), names[r.A], names[r.B], r.Ohms).Loc = r.Loc
	}
	return out
}

// perm returns a permutation of [0, n) drawn from rng.
func perm(rng *obs.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// summarize renders what a rename must not move: c's fingerprint and,
// without and with the lint gate, the verdict, the inspect load and the
// sorted IDs of the report's findings and of every battery finding,
// passes included, or the sorted IDs of the diagnostics a tripped gate
// reports. It also holds the report's battery to per-check Run
// (batteryIDs).
func summarize(tb testing.TB, c *netlist.Circuit) string {
	tb.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "fingerprint %s\n", c.Fingerprint())
	for _, lint := range []bool{false, true} {
		rep, err := core.Verify(c, core.Options{Proc: process.CMOS075(), Lint: lint})
		var gate *core.LintGateError
		switch {
		case errors.As(err, &gate):
			fmt.Fprintf(&b, "lint=%v: gate: %s\n", lint, sortedIDs(core.LintFindings(gate.Report)))
		case err != nil:
			tb.Logf("lint=%v: %v", lint, err)
			fmt.Fprintf(&b, "lint=%v: error\n", lint)
		default:
			fmt.Fprintf(&b, "lint=%v: %s, inspect load %d\n  findings: %s\n  battery: %s\n",
				lint, rep.Verdict, rep.InspectLoad, sortedIDs(rep.Findings()), batteryIDs(tb, rep))
		}
	}
	return b.String()
}

// batteryIDs runs every check with checks.Run on rep's recognition, as
// Verify configured the battery, and returns the sorted IDs of all its
// findings, passes included. It fails tb unless rep.Checks keeps
// exactly the non-pass findings of those runs, in battery order, and
// counts every verdict they give per check.
func batteryIDs(tb testing.TB, rep *core.Report) string {
	tb.Helper()
	r := rep.Recognition
	sigs := netlist.ComputeSignatures(r.Circuit)
	opt := checks.Options{Proc: process.CMOS075(), PeriodPS: rep.Clock.PeriodPS}
	var ids []string
	var kept []checks.Finding
	tally := make(map[string]map[checks.Verdict]int)
	for _, name := range checks.CheckNames() {
		fs, err := checks.Run(name, r, sigs, opt)
		if err != nil {
			tb.Fatal(err)
		}
		tally[name] = make(map[checks.Verdict]int)
		for _, f := range fs {
			ids = append(ids, f.ID)
			tally[name][f.Verdict]++
			if f.Verdict != checks.Pass {
				kept = append(kept, f)
			}
		}
	}
	if !reflect.DeepEqual(rep.Checks.Findings, kept) {
		tb.Errorf("%s: battery findings differ from per-check Run's non-pass findings", rep.Design)
	}
	if !reflect.DeepEqual(rep.Checks.ByCheck, tally) {
		tb.Errorf("%s: battery tallies %v, per-check Run %v", rep.Design, rep.Checks.ByCheck, tally)
	}
	sort.Strings(ids)
	return strings.Join(ids, " ")
}

// sortedIDs joins the findings' IDs in sorted order.
func sortedIDs(fs []obs.Finding) string {
	ids := make([]string, len(fs))
	for i, f := range fs {
		ids[i] = f.ID
	}
	sort.Strings(ids)
	return strings.Join(ids, " ")
}
