package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/netlist"
)

const brokenDeck = "../../examples/decks/broken_lint.sp"

// captureLint runs the lint subcommand with stdout redirected to a temp
// file and returns the rendered output plus the error.
func captureLint(t *testing.T, args []string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	runErr := runLint(args, f)
	f.Close()
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestLintExitCodes pins the subcommand's exit-code contract: nil (exit
// 0) on a clean deck, errLintFindings (exit 1) on unwaived errors, nil
// again when every error-severity finding is waived.
func TestLintExitCodes(t *testing.T) {
	clean := writeDeck(t, invDeck)
	if err := run("lint", []string{clean}); err != nil {
		t.Errorf("clean deck: %v, want nil", err)
	}

	err := run("lint", []string{brokenDeck})
	if !errors.Is(err, errLintFindings) {
		t.Errorf("broken deck: %v, want errLintFindings", err)
	}

	waivers := filepath.Join(t.TempDir(), "waivers")
	if err := os.WriteFile(waivers, []byte(
		"FCV001 broken_cell ghost intentionally floating for the test\n"+
			"FCV003 broken_cell msn intentional rail short for the test\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("lint", []string{"-waivers", waivers, brokenDeck}); err != nil {
		t.Errorf("waived deck: %v, want nil (warnings never drive the exit code)", err)
	}
}

// TestLintSeededFindings asserts the broken deck reports the two seeded
// error rules at the exact deck lines the fixture documents.
func TestLintSeededFindings(t *testing.T) {
	out, err := captureLint(t, []string{brokenDeck})
	if !errors.Is(err, errLintFindings) {
		t.Fatalf("err = %v, want errLintFindings", err)
	}
	for _, want := range []string{
		"broken_lint.sp:5: error FCV001 [broken_cell] ghost",
		"broken_lint.sp:8: error FCV003 [broken_cell] msn",
		"broken_lint.sp:12: warn FCV005 [broken_cell] dyn",
		"broken_lint.sp:15: warn FCV004 [broken_cell] stub",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestLintSARIFOutput checks -format sarif emits a parseable SARIF 2.1.0
// log with the seeded findings, and that waived findings carry
// suppressions instead of vanishing.
func TestLintSARIFOutput(t *testing.T) {
	waivers := filepath.Join(t.TempDir(), "waivers")
	if err := os.WriteFile(waivers, []byte("FCV001 * * demo waiver\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, runErr := captureLint(t, []string{"-format", "sarif", "-waivers", waivers, brokenDeck})
	if !errors.Is(runErr, errLintFindings) {
		t.Fatalf("err = %v, want errLintFindings (FCV003 is not waived)", runErr)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID       string `json:"ruleId"`
				Suppressions []struct {
					Kind string `json:"kind"`
				} `json:"suppressions"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("SARIF does not parse: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version = %q runs = %d", log.Version, len(log.Runs))
	}
	suppressed := 0
	rules := map[string]bool{}
	for _, r := range log.Runs[0].Results {
		rules[r.RuleID] = true
		for _, s := range r.Suppressions {
			if s.Kind == "external" {
				suppressed++
			}
		}
	}
	if !rules["FCV001"] || !rules["FCV003"] {
		t.Errorf("rules seen = %v, want FCV001 and FCV003", rules)
	}
	if suppressed != 1 {
		t.Errorf("suppressed results = %d, want 1 (the waived FCV001)", suppressed)
	}
}

// TestLintFlagHandling covers the remaining subcommand surface: JSON
// format, unknown format, unknown cell, missing deck, a live soup named
// as the top, and an empty deck.
func TestLintFlagHandling(t *testing.T) {
	clean := writeDeck(t, invDeck)
	out, err := captureLint(t, []string{"-format", "json", clean})
	if err != nil {
		t.Fatalf("json format: %v", err)
	}
	var rep struct {
		Errors int `json:"errors"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if _, err := captureLint(t, []string{"-format", "yaml", clean}); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := captureLint(t, []string{clean, "nosuch"}); err == nil {
		t.Error("unknown cell accepted")
	}
	if _, err := captureLint(t, nil); err == nil {
		t.Error("missing deck accepted")
	}
	// Naming the live soup lints it as the root, as verify does.
	soup := writeDeck(t, invDeck+"msn vdd vdd vss vss nmos w=2 l=0.75\n")
	out, err = captureLint(t, []string{soup, "top"})
	if !errors.Is(err, errLintFindings) || !strings.Contains(out, "FCV003 [top] msn") {
		t.Errorf("lint soup.sp top: %v, want the soup's FCV003 finding:\n%s", err, out)
	}
	// An empty deck has no root: an operational failure (exit 2).
	if _, err := captureLint(t, []string{writeDeck(t, "* nothing here\n")}); err == nil || isFindings(err) {
		t.Errorf("empty deck: %v, want an operational failure", err)
	}
}

// seededDecks are the known-defect fixtures (beyond the broken_* naming
// convention) and the single rule each must be caught by.
var seededDecks = map[string]string{
	"c2mos_pipe.sp": "FCV011",
	"nora_stage.sp": "FCV012",
	"sneak_path.sp": "FCV014",
}

// TestLintDeckCorpus runs every shipped example deck through the linter:
// decks named broken_* and the seeded-defect fixtures must fail with
// findings, everything else ships lint-clean.
func TestLintDeckCorpus(t *testing.T) {
	decks, err := filepath.Glob("../../examples/decks/*.sp")
	if err != nil || len(decks) == 0 {
		t.Fatalf("no example decks found: %v", err)
	}
	for _, deck := range decks {
		err := run("lint", []string{deck})
		_, seeded := seededDecks[filepath.Base(deck)]
		if seeded || strings.HasPrefix(filepath.Base(deck), "broken") {
			if !errors.Is(err, errLintFindings) {
				t.Errorf("%s: %v, want errLintFindings", deck, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v, want lint-clean", deck, err)
		}
	}
}

// TestLintSeededPhaseFixtures pins the known-answer labels of the
// FCV011/FCV012/FCV014 fixtures: each seeded deck reports exactly its
// intended rule (and only error-severity findings of that rule), and
// the clean counterpart reports nothing at all.
func TestLintSeededPhaseFixtures(t *testing.T) {
	for base, wantRule := range seededDecks {
		deck := "../../examples/decks/" + base
		out, err := captureLint(t, []string{deck})
		if !errors.Is(err, errLintFindings) {
			t.Errorf("%s: err = %v, want errLintFindings", base, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if strings.HasPrefix(line, "lint:") {
				continue
			}
			if !strings.Contains(line, wantRule) {
				t.Errorf("%s: finding from an unintended rule (want only %s): %s", base, wantRule, line)
			}
		}

		clean := strings.TrimSuffix(deck, ".sp") + "_clean.sp"
		cout, cerr := captureLint(t, []string{clean})
		if cerr != nil {
			t.Errorf("%s clean counterpart: %v, want nil", base, cerr)
		}
		for _, line := range strings.Split(strings.TrimSpace(cout), "\n") {
			if strings.Contains(line, "FCV") && !strings.HasPrefix(line, "lint:") {
				t.Errorf("%s clean counterpart: false positive: %s", base, line)
			}
		}
	}
}

// TestLintLibraryFromDeck pins the library driver's root inference on a
// hierarchical deck: the top-level soup is linted as a cell and unused
// cells get FCV008 only when a root is named.
func TestLintLibraryFromDeck(t *testing.T) {
	deck := writeDeck(t, invDeck+
		".subckt orphan a y\nmn y a vss vss nmos w=2 l=0.75\nmp y a vdd vdd pmos w=4 l=0.75\n.ends\n")
	lib, top, err := netlist.ParseFile(deck)
	if err != nil {
		t.Fatal(err)
	}
	lib.Add(top)
	rep, err := lint.LintLibrary(lib, lint.LibraryOptions{Roots: []string{"top"}})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, d := range rep.Diags {
		if d.Rule == lint.UnusedCellRuleID {
			unused = append(unused, d.Subject)
		}
	}
	if len(unused) != 1 || unused[0] != "orphan" {
		t.Errorf("FCV008 subjects = %v, want [orphan]", unused)
	}
}
