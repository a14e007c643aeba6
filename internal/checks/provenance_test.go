package checks

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/netlist"
)

// dominoRenamed rebuilds domino(false, 0) with every node and device
// renamed and the elements inserted in a different order — structurally
// identical, textually unrelated.
func dominoRenamed() *netlist.Circuit {
	c := netlist.New("zz")
	c.DeclarePort("p")
	c.DeclarePort("q")
	c.NMOS("t4", "p", "w1", "top", 6, 0.75)
	c.NMOS("t5", "q", "w2", "w1", 6, 0.75)
	c.PMOS("t2", "top", "vdd", "res", 4, 0.75) // buf inverter P half
	c.NMOS("t1", "top", "vss", "res", 2, 0.75) // buf inverter N half
	c.NMOS("t6", "ck", "vss", "w2", 8, 0.75)
	c.PMOS("t3", "ck", "vdd", "top", 4, 0.75)
	c.DeclarePort("res")
	return c
}

// findingIDs runs every check with Run, so passes are named too, and
// returns the sorted finding-ID list.
func findingIDs(t *testing.T, c *netlist.Circuit) []string {
	t.Helper()
	var ids []string
	for _, f := range runEach(t, rec(t, c), netlist.ComputeSignatures(c), opts()) {
		if f.ID == "" {
			t.Errorf("finding %s/%s has no ID", f.Check, f.Subject)
		}
		ids = append(ids, f.ID)
	}
	sort.Strings(ids)
	return ids
}

// TestFindingIDsRenameInvariant is the provenance contract: renaming
// every node and device and reordering the deck changes no finding ID,
// while a sizing change does.
func TestFindingIDsRenameInvariant(t *testing.T) {
	base := findingIDs(t, domino(false, 0))
	renamed := findingIDs(t, dominoRenamed())
	if strings.Join(base, "\n") != strings.Join(renamed, "\n") {
		t.Errorf("finding IDs moved under rename+reorder:\n--- original ---\n%s\n--- renamed ---\n%s",
			strings.Join(base, "\n"), strings.Join(renamed, "\n"))
	}

	// Widening the evaluate stack is a structural change: the ID set
	// must move (the same defects now live at a different "place").
	wide := domino(false, 0)
	for i := range wide.Devices {
		if wide.Devices[i].Name == "ma" {
			wide.Devices[i].W = 12
		}
	}
	widened := findingIDs(t, wide)
	if strings.Join(base, "\n") == strings.Join(widened, "\n") {
		t.Error("finding IDs identical after W change — IDs are not structure-sensitive")
	}
}

// TestFindingIDsGolden pins the domino battery's finding IDs to a
// golden file, so an accidental change to the hashing (which would
// silently break every stored baseline manifest) fails loudly.
// Regenerate with: UPDATE_GOLDEN=1 go test ./internal/checks -run Golden
func TestFindingIDsGolden(t *testing.T) {
	got := strings.Join(findingIDs(t, domino(false, 0)), "\n") + "\n"
	golden := filepath.Join("testdata", "finding_ids.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("finding IDs drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEvidenceAttached checks the structured-evidence half of
// provenance: node findings carry their nets and attached devices,
// device findings their terminals, and all carry the measured margin.
func TestEvidenceAttached(t *testing.T) {
	c := domino(false, 0)
	var nodeChecked, devChecked bool
	for _, f := range runEach(t, rec(t, c), netlist.ComputeSignatures(c), opts()) {
		if f.Evidence.Unit != "margin" {
			t.Errorf("%s %s: evidence unit %q, want margin", f.Check, f.Subject, f.Evidence.Unit)
		}
		if f.Evidence.Measured != f.Margin {
			t.Errorf("%s %s: measured %v != margin %v", f.Check, f.Subject, f.Evidence.Measured, f.Margin)
		}
		if f.Subject == "dyn" {
			nodeChecked = true
			if len(f.Evidence.Nets) == 0 || f.Evidence.Nets[0] != "dyn" {
				t.Errorf("node finding nets = %v, want [dyn]", f.Evidence.Nets)
			}
			if len(f.Evidence.Devices) == 0 {
				t.Error("node finding has no attached devices")
			}
		}
		if f.Subject == "ma" || f.Subject == "mpre" {
			devChecked = true
			if len(f.Evidence.Devices) != 1 || f.Evidence.Devices[0] != f.Subject {
				t.Errorf("device finding devices = %v, want [%s]", f.Evidence.Devices, f.Subject)
			}
		}
	}
	if !nodeChecked {
		t.Error("no finding on node dyn to check evidence for")
	}
	_ = devChecked // device-subject findings are battery-dependent; checked when present
}
