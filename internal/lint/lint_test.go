package lint

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/netlist"
)

// parseCell parses a deck string and flattens the named cell, renamed
// back to the bare cell name the way LintLibrary presents it.
func parseCell(t *testing.T, deck, cell string) *netlist.Circuit {
	t.Helper()
	lib, _, err := netlist.ParseNamed(strings.NewReader(deck), "deck.sp")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := lib.Flatten(cell)
	if err != nil {
		t.Fatal(err)
	}
	flat.Name = cell
	return flat
}

// lintDeck lints one cell of a deck string with default options.
func lintDeck(t *testing.T, deck, cell string) *Report {
	t.Helper()
	rep, err := Run(parseCell(t, deck, cell), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// findRule returns the diagnostics of one rule.
func findRule(rep *Report, id string) []Diag {
	var out []Diag
	for _, d := range rep.Diags {
		if d.Rule == id {
			out = append(out, d)
		}
	}
	return out
}

const cleanInv = `
.subckt inv a y
mn y a vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
.ends
`

func TestCleanInverterHasNoFindings(t *testing.T) {
	rep := lintDeck(t, cleanInv, "inv")
	if len(rep.Diags) != 0 {
		t.Errorf("clean inverter produced findings: %v", rep.Diags)
	}
}

func TestFloatingGate(t *testing.T) {
	deck := `
.subckt c a y
mn y ghost vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
.ends
`
	rep := lintDeck(t, deck, "c")
	ds := findRule(rep, "FCV001")
	if len(ds) != 1 {
		t.Fatalf("FCV001 findings = %d, want 1 (%v)", len(ds), rep.Diags)
	}
	d := ds[0]
	if d.Subject != "ghost" || d.Severity != Error {
		t.Errorf("diag = %+v", d)
	}
	if d.Loc.File != "deck.sp" || d.Loc.Line != 3 {
		t.Errorf("loc = %v, want deck.sp:3", d.Loc)
	}
}

func TestFloatingGateSkippedWithoutPorts(t *testing.T) {
	// Top-level element soup: every undriven net might be a primary
	// input, so FCV001 stays silent.
	deck := `
mn y ghost vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
`
	lib, top, err := netlist.ParseNamed(strings.NewReader(deck), "deck.sp")
	if err != nil {
		t.Fatal(err)
	}
	lib.Add(top)
	flat, err := lib.Flatten("top")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(flat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds := findRule(rep, "FCV001"); len(ds) != 0 {
		t.Errorf("soup deck produced FCV001: %v", ds)
	}
}

func TestNoDCPath(t *testing.T) {
	// iso drives the inverter's gate but only channel-connects to iso2,
	// which goes nowhere: no assignment ever sets iso's level.
	deck := `
.subckt c a y
mp1 iso a iso2 vss nmos w=2 l=0.75
mn y iso vss vss nmos w=2 l=0.75
mpz y iso vdd vdd pmos w=4 l=0.75
.ends
`
	rep := lintDeck(t, deck, "c")
	ds := findRule(rep, "FCV002")
	if len(ds) != 1 || ds[0].Subject != "iso" || ds[0].Severity != Error {
		t.Fatalf("FCV002 = %v, want single error on iso", ds)
	}
	// A pass network that reaches a port is drivable: no finding.
	deck2 := `
.subckt c a s y
mp1 m s a vss nmos w=2 l=0.75
mn y m vss vss nmos w=2 l=0.75
mpz y m vdd vdd pmos w=4 l=0.75
.ends
`
	if ds := findRule(lintDeck(t, deck2, "c"), "FCV002"); len(ds) != 0 {
		t.Errorf("port-reaching pass net flagged: %v", ds)
	}
}

func TestSneakPath(t *testing.T) {
	deck := `
.subckt c a y
mn y a vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
msn vdd vdd mid vss nmos w=2 l=0.75
msp mid vss vss vdd pmos w=2 l=0.75
.ends
`
	rep := lintDeck(t, deck, "c")
	ds := findRule(rep, "FCV003")
	if len(ds) != 2 {
		t.Fatalf("FCV003 findings = %d, want 2 (both chain devices): %v", len(ds), rep.Diags)
	}
	for _, d := range ds {
		if d.Severity != Error {
			t.Errorf("severity = %v, want error", d.Severity)
		}
	}
	// An always-on device NOT bridging the rails (pass to a signal) is
	// not a sneak path.
	deck2 := `
.subckt c a y
mn y a vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
mk keep vdd y vss nmos w=1 l=0.75
.ends
`
	if ds := findRule(lintDeck(t, deck2, "c"), "FCV003"); len(ds) != 0 {
		t.Errorf("non-bridging always-on device flagged: %v", ds)
	}
}

func TestDanglingTerminal(t *testing.T) {
	deck := `
.subckt c a y
mn y a vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
mdg stub a vss vss nmos w=2 l=0.75
* Both channel terminals on one node are two terminal references.
msh shorted a shorted vss nmos w=2 l=0.75
.ends
`
	rep := lintDeck(t, deck, "c")
	ds := findRule(rep, "FCV004")
	if len(ds) != 1 || ds[0].Subject != "stub" || ds[0].Severity != Warn {
		t.Fatalf("FCV004 = %v, want single warn on stub", ds)
	}
}

const keeperlessDomino = `
.subckt dom a phi y
mpre dyn phi vdd vdd pmos w=4 l=0.75
mev  dyn a   foot vss nmos w=6 l=0.75
mft  foot phi vss vss nmos w=8 l=0.75
mbn  y dyn vss vss nmos w=2 l=0.75
mbp  y dyn vdd vdd pmos w=4 l=0.75
.ends
`

func TestKeeperlessDynamic(t *testing.T) {
	rep := lintDeck(t, keeperlessDomino, "dom")
	ds := findRule(rep, "FCV005")
	if len(ds) != 1 || ds[0].Subject != "dyn" || ds[0].Severity != Warn {
		t.Fatalf("FCV005 = %v, want single warn on dyn", ds)
	}
	// Adding the keeper silences the rule.
	withKeeper := strings.Replace(keeperlessDomino, ".ends",
		"mkeep dyn y vdd vdd pmos w=1 l=1.125\n.ends", 1)
	if ds := findRule(lintDeck(t, withKeeper, "dom"), "FCV005"); len(ds) != 0 {
		t.Errorf("kept domino flagged: %v", ds)
	}
}

func TestPassOnlyGate(t *testing.T) {
	// NMOS-only steering into an inverter gate: threshold drop.
	deck := `
.subckt c a s y
mp1 m s a vss nmos w=2 l=0.75
mn y m vss vss nmos w=2 l=0.75
mpz y m vdd vdd pmos w=4 l=0.75
.ends
`
	rep := lintDeck(t, deck, "c")
	ds := findRule(rep, "FCV006")
	if len(ds) != 1 || ds[0].Subject != "m" || !strings.Contains(ds[0].Message, "NMOS-only") {
		t.Fatalf("FCV006 = %v, want NMOS-only warn on m", ds)
	}
	// A full transmission gate passes both levels: clean.
	tg := `
.subckt c a s sn y
mtn m s a vss nmos w=2 l=0.75
mtp m sn a vdd pmos w=2 l=0.75
mn y m vss vss nmos w=2 l=0.75
mpz y m vdd vdd pmos w=4 l=0.75
.ends
`
	if ds := findRule(lintDeck(t, tg, "c"), "FCV006"); len(ds) != 0 {
		t.Errorf("full TG flagged: %v", ds)
	}
}

func TestGeometry(t *testing.T) {
	cases := []struct {
		wl   string
		frag string
	}{
		{"w=600 l=0.75", "aspect ratio"}, // W/L = 800 > 500
		{"w=2 l=150", "aspect ratio"},    // W/L = 0.013 < 0.02
		{"w=1200 l=3", "width"},          // ratio fine, W > 1000
		{"w=5 l=120", "channel length"},  // ratio fine, L > 100
	}
	for _, c := range cases {
		deck := ".subckt g a y\nmn y a vss vss nmos " + c.wl + "\nmp y a vdd vdd pmos w=4 l=0.75\n.ends\n"
		ds := findRule(lintDeck(t, deck, "g"), "FCV007")
		if len(ds) != 1 || !strings.Contains(ds[0].Message, c.frag) {
			t.Errorf("%s: FCV007 = %v, want single warn mentioning %q", c.wl, ds, c.frag)
		}
	}
	if ds := findRule(lintDeck(t, cleanInv, "inv"), "FCV007"); len(ds) != 0 {
		t.Errorf("sane geometry flagged: %v", ds)
	}
}

func TestShadowedNames(t *testing.T) {
	deck := `
.subckt c a Out out
mn Out a vss vss nmos w=2 l=0.75
mp Out a vdd vdd pmos w=4 l=0.75
mn2 out a vss vss nmos w=2 l=0.75
mp2 out a vdd vdd pmos w=4 l=0.75
.ends
`
	rep := lintDeck(t, deck, "c")
	ds := findRule(rep, "FCV009")
	if len(ds) != 1 || !strings.Contains(ds[0].Message, "differ only by case") {
		t.Fatalf("FCV009 = %v, want case-shadowing warn", ds)
	}

	unused := `
.subckt c a nc y
mn y a vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
.ends
`
	ds = findRule(lintDeck(t, unused, "c"), "FCV009")
	if len(ds) != 1 || ds[0].Subject != "nc" || !strings.Contains(ds[0].Message, "connected to nothing") {
		t.Fatalf("FCV009 = %v, want unused-port warn on nc", ds)
	}
}

func TestFanoutCeiling(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(".subckt c a")
	for i := 0; i < 4; i++ {
		sb.WriteString(" y")
		sb.WriteByte(byte('0' + i))
	}
	sb.WriteString("\n")
	for i := 0; i < 4; i++ {
		y := "y" + string(byte('0'+i))
		sb.WriteString("mn" + y + " " + y + " a vss vss nmos w=2 l=0.75\n")
		sb.WriteString("mp" + y + " " + y + " a vdd vdd pmos w=4 l=0.75\n")
	}
	sb.WriteString(".ends\n")
	c := parseCell(t, sb.String(), "c")
	rep, err := Run(c, Options{FanoutLimit: 7})
	if err != nil {
		t.Fatal(err)
	}
	ds := findRule(rep, "FCV010")
	if len(ds) != 1 || ds[0].Subject != "a" {
		t.Fatalf("FCV010 = %v, want single warn on a (fanout 8 > 7)", ds)
	}
	rep, err = Run(c, Options{FanoutLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ds := findRule(rep, "FCV010"); len(ds) != 0 {
		t.Errorf("fanout at the limit flagged: %v", ds)
	}
}

func TestWaivers(t *testing.T) {
	w, err := ParseWaivers(strings.NewReader(`
# comment line
FCV001 c ghost known-floating test net
FCV00? other* * wildcard entry
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(w.entries))
	}
	deck := `
.subckt c a y
mn y ghost vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
.ends
`
	rep, err := Run(parseCell(t, deck, "c"), Options{Waivers: w})
	if err != nil {
		t.Fatal(err)
	}
	ds := findRule(rep, "FCV001")
	if len(ds) != 1 || !ds[0].Waived || ds[0].WaiverNote != "known-floating test net" {
		t.Fatalf("waived diag = %+v", ds)
	}
	if rep.HasErrors() {
		t.Error("waived error still drives HasErrors")
	}
	unused := w.Unused()
	if len(unused) != 1 || unused[0].Cell != "other*" {
		t.Errorf("unused = %+v, want the wildcard entry", unused)
	}

	if _, err := ParseWaivers(strings.NewReader("FCV001 c\n")); err == nil {
		t.Error("two-field waiver line accepted")
	}
	if _, err := ParseWaivers(strings.NewReader("FCV[001 c x\n")); err == nil {
		t.Error("malformed glob accepted")
	}
}

func TestReportCountsAndRenderers(t *testing.T) {
	deck := `
.subckt c a y
mn y ghost vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
mdg stub a vss vss nmos w=2 l=0.75
.ends
`
	rep := lintDeck(t, deck, "c")
	errs, warns, _ := rep.Counts()
	if errs != 1 || warns != 1 {
		t.Fatalf("counts = %d errors %d warns, want 1/1: %v", errs, warns, rep.Diags)
	}
	if !rep.HasErrors() {
		t.Error("HasErrors = false")
	}

	text := rep.Text()
	if !strings.Contains(text, "deck.sp:3: error FCV001 [c] ghost") {
		t.Errorf("text rendering missing compiler-style line:\n%s", text)
	}
	if !strings.Contains(text, "1 error(s), 1 warning(s)") {
		t.Errorf("text summary wrong:\n%s", text)
	}

	jb, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Findings []map[string]any `json:"findings"`
		Errors   int              `json:"errors"`
	}
	if err := json.Unmarshal(jb, &decoded); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(decoded.Findings) != 2 || decoded.Errors != 1 {
		t.Errorf("JSON = %d findings %d errors", len(decoded.Findings), decoded.Errors)
	}
}

func TestSARIFShape(t *testing.T) {
	deck := `
.subckt c a y
mn y ghost vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
.ends
`
	rep := lintDeck(t, deck, "c")
	sb, err := rep.SARIF()
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string           `json:"name"`
					Rules []map[string]any `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(sb, &log); err != nil {
		t.Fatalf("SARIF does not parse: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("version = %q schema = %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "fcv-lint" {
		t.Fatalf("runs/driver malformed")
	}
	if len(log.Runs[0].Tool.Driver.Rules) != len(DefaultRules()) {
		t.Errorf("rule descriptors = %d, want %d", len(log.Runs[0].Tool.Driver.Rules), len(DefaultRules()))
	}
	res := log.Runs[0].Results
	if len(res) != 1 || res[0].RuleID != "FCV001" || res[0].Level != "error" {
		t.Fatalf("results = %+v", res)
	}
	pl := res[0].Locations[0].PhysicalLocation
	if pl.ArtifactLocation.URI != "deck.sp" || pl.Region.StartLine != 3 {
		t.Errorf("location = %+v, want deck.sp:3", pl)
	}
}

func TestRuleRegistryStable(t *testing.T) {
	rules := DefaultRules()
	if len(rules) != 18 {
		t.Fatalf("rule count = %d, want 18", len(rules))
	}
	want := []string{"FCV001", "FCV002", "FCV003", "FCV004", "FCV005",
		"FCV006", "FCV007", "FCV008", "FCV009", "FCV010",
		"FCV011", "FCV012", "FCV013", "FCV014", "FCV015",
		"FCV016", "FCV017", "FCV018"}
	for i, r := range rules {
		if r.ID() != want[i] {
			t.Errorf("rule %d = %s, want %s", i, r.ID(), want[i])
		}
		if r.Title() == "" {
			t.Errorf("rule %s has no title", r.ID())
		}
	}
}
