package lint

import (
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
)

// The FCV011–FCV018 fixtures live here as deck strings so each rule has
// a firing circuit and a clean near-miss, and so the waiver and
// rename-invariance sweeps below can iterate the whole family.

const fcv011Deck = `
.subckt c2bad in phi1 phi1_n out
mp1 n1 in vdd vdd pmos w=4 l=0.75
mp2 out phi1 n1 vdd pmos w=4 l=0.75
mn1 out phi1 n2 vss nmos w=2 l=0.75
mn2 n2 in vss vss nmos w=2 l=0.75
.ends
`

const fcv011Clean = `
.subckt c2ok in phi1 phi1_n out
mp1 n1 in vdd vdd pmos w=4 l=0.75
mp2 out phi1_n n1 vdd pmos w=4 l=0.75
mn1 out phi1 n2 vss nmos w=2 l=0.75
mn2 n2 in vss vss nmos w=2 l=0.75
.ends
`

const fcv012Deck = `
.subckt norabad in phi1 out2
mpre1 dyn1 phi1 vdd vdd pmos w=4 l=0.75
mev1 dyn1 in n1 vss nmos w=2 l=0.75
mft1 n1 phi1 vss vss nmos w=2 l=0.75
mi1n out1 dyn1 vss vss nmos w=2 l=0.75
mi1p out1 dyn1 vdd vdd pmos w=4 l=0.75
mk1 dyn1 out1 vdd vdd pmos w=1 l=0.75
mpre2 dyn2 phi1 vdd vdd pmos w=4 l=0.75
mev2 dyn2 dyn1 n2 vss nmos w=2 l=0.75
mft2 n2 phi1 vss vss nmos w=2 l=0.75
mi2n out2 dyn2 vss vss nmos w=2 l=0.75
mi2p out2 dyn2 vdd vdd pmos w=4 l=0.75
mk2 dyn2 out2 vdd vdd pmos w=1 l=0.75
.ends
`

// fcv012Clean is the same pipeline with the static inversion in the
// signal path (mev2 listens to out1, the inverted stage-1 output).
var fcv012Clean = strings.Replace(
	strings.Replace(fcv012Deck, "norabad", "noraok", 1),
	"mev2 dyn2 dyn1 n2", "mev2 dyn2 out1 n2", 1)

const fcv014Deck = `
.subckt fight in1 in2 phi1 phi1_n bus
mn1 bus in1 vss vss nmos w=2 l=0.75
mp1 bus in1 vdd vdd pmos w=4 l=0.75
mp2 t1 in2 vdd vdd pmos w=4 l=0.75
mp3 bus phi1_n t1 vdd pmos w=4 l=0.75
mn2 bus phi1 t2 vss nmos w=2 l=0.75
mn3 t2 in2 vss vss nmos w=2 l=0.75
.ends
`

const fcv015Deck = `
.subckt cshare a b phi1 out
mpre dyn phi1 vdd vdd pmos w=4 l=0.75
mev1 dyn a n1 vss nmos w=2 l=0.75
mev2 n1 b n2 vss nmos w=2 l=0.75
mft n2 phi1 vss vss nmos w=2 l=0.75
min out dyn vss vss nmos w=2 l=0.75
mip out dyn vdd vdd pmos w=4 l=0.75
.ends
`

// fcv015Keeper adds the keeper; fcv015SmallCap keeps the node
// keeperless but declares capacitances that make the exposure harmless.
var fcv015Keeper = strings.Replace(
	strings.Replace(fcv015Deck, "cshare", "cskeep", 1),
	".ends", "mk dyn out vdd vdd pmos w=1 l=0.75\n.ends", 1)

var fcv015SmallCap = strings.Replace(
	strings.Replace(fcv015Deck, "cshare", "cscap", 1),
	".ends", "c1 dyn vss 100f\nc2 n1 vss 1f\n.ends", 1)

const fcv016Deck = `
.subckt pnbad a y
mload y vss vdd vdd pmos w=4 l=0.75
mdrv y a vss vss nmos w=1 l=0.75
.ends
`

var fcv016Clean = strings.Replace(
	strings.Replace(fcv016Deck, "pnbad", "pnok", 1),
	"mdrv y a vss vss nmos w=1", "mdrv y a vss vss nmos w=8", 1)

const fcv017Deck = `
.subckt pfloat in phi1 out
mpass y phi1 in vss nmos w=2 l=0.75
min out y vss vss nmos w=2 l=0.75
mip out y vdd vdd pmos w=4 l=0.75
.ends
`

const fcv017Clean = `
.subckt platch in phi1 phi1_n out
mtn m phi1 in vss nmos w=2 l=0.75
mtp m phi1_n in vdd pmos w=4 l=0.75
min out m vss vss nmos w=2 l=0.75
mip out m vdd vdd pmos w=4 l=0.75
mfn m out vss vss nmos w=1 l=0.75
mfp m out vdd vdd pmos w=1 l=0.75
.ends
`

const fcv018Deck = `
.subckt dead out
moff g vss vss vss nmos w=2 l=0.75
mdn out g vss vss nmos w=2 l=0.75
mdp out g vdd vdd pmos w=4 l=0.75
.ends
`

const fcv018Clean = `
.subckt alive a out
moff g a vss vss nmos w=2 l=0.75
mdn out g vss vss nmos w=2 l=0.75
mdp out g vdd vdd pmos w=4 l=0.75
.ends
`

func TestClockedStageDiscipline(t *testing.T) {
	rep := lintDeck(t, fcv011Deck, "c2bad")
	ds := findRule(rep, "FCV011")
	if len(ds) != 1 || ds[0].Subject != "out" {
		t.Fatalf("FCV011 = %+v, want exactly one on out", ds)
	}
	if !strings.Contains(ds[0].Message, "phi1=0") || !strings.Contains(ds[0].Message, "phi1=1") {
		t.Errorf("message lacks the phase witnesses: %s", ds[0].Message)
	}
	if ds := findRule(lintDeck(t, fcv011Clean, "c2ok"), "FCV011"); len(ds) != 0 {
		t.Errorf("clean C²MOS stage fired FCV011: %+v", ds)
	}
}

func TestNoraDiscipline(t *testing.T) {
	rep := lintDeck(t, fcv012Deck, "norabad")
	ds := findRule(rep, "FCV012")
	if len(ds) != 1 || ds[0].Subject != "dyn1" {
		t.Fatalf("FCV012 = %+v, want exactly one on dyn1", ds)
	}
	if !strings.Contains(ds[0].Message, "mev2") {
		t.Errorf("message does not name the receiving device: %s", ds[0].Message)
	}
	if ds := findRule(lintDeck(t, fcv012Clean, "noraok"), "FCV012"); len(ds) != 0 {
		t.Errorf("domino chain with static inversion fired FCV012: %+v", ds)
	}
}

func TestLatchRaceRule(t *testing.T) {
	racy, err := Run(designs.LatchPipeline(4, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds := findRule(racy, "FCV013")
	if len(ds) != 3 {
		t.Fatalf("FCV013 on racy pipeline = %d, want 3 (adjacent latch pairs): %+v", len(ds), ds)
	}
	for _, d := range ds {
		if !strings.Contains(d.Message, "transparent") {
			t.Errorf("message lacks transparency context: %s", d.Message)
		}
	}
	clean, err := Run(designs.LatchPipeline(4, false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds := findRule(clean, "FCV013"); len(ds) != 0 {
		t.Errorf("two-phase pipeline fired FCV013: %+v", ds)
	}
}

func TestPhaseFight(t *testing.T) {
	rep := lintDeck(t, fcv014Deck, "fight")
	ds := findRule(rep, "FCV014")
	if len(ds) != 1 || ds[0].Subject != "bus" {
		t.Fatalf("FCV014 = %+v, want exactly one on bus", ds)
	}
	if !strings.Contains(ds[0].Message, "phi1=1") {
		t.Errorf("message lacks the enabling phase: %s", ds[0].Message)
	}
}

func TestChargeSharingRule(t *testing.T) {
	ds := findRule(lintDeck(t, fcv015Deck, "cshare"), "FCV015")
	if len(ds) != 1 || ds[0].Subject != "dyn" {
		t.Fatalf("FCV015 = %+v, want exactly one on dyn", ds)
	}
	if !strings.Contains(ds[0].Message, "n1") {
		t.Errorf("message does not name the internal node: %s", ds[0].Message)
	}
	if ds := findRule(lintDeck(t, fcv015Keeper, "cskeep"), "FCV015"); len(ds) != 0 {
		t.Errorf("keepered domino fired FCV015: %+v", ds)
	}
	if ds := findRule(lintDeck(t, fcv015SmallCap, "cscap"), "FCV015"); len(ds) != 0 {
		t.Errorf("small internal/output cap ratio fired FCV015: %+v", ds)
	}
}

func TestRatioedStrengthRule(t *testing.T) {
	ds := findRule(lintDeck(t, fcv016Deck, "pnbad"), "FCV016")
	if len(ds) != 1 || ds[0].Subject != "y" {
		t.Fatalf("FCV016 = %+v, want exactly one on y", ds)
	}
	if ds := findRule(lintDeck(t, fcv016Clean, "pnok"), "FCV016"); len(ds) != 0 {
		t.Errorf("strongly-ratioed pseudo-nMOS fired FCV016: %+v", ds)
	}
}

func TestPhaseFloatRule(t *testing.T) {
	ds := findRule(lintDeck(t, fcv017Deck, "pfloat"), "FCV017")
	if len(ds) != 1 || ds[0].Subject != "y" {
		t.Fatalf("FCV017 = %+v, want exactly one on y", ds)
	}
	if !strings.Contains(ds[0].Message, "floats") {
		t.Errorf("message = %s", ds[0].Message)
	}
	if ds := findRule(lintDeck(t, fcv017Clean, "platch"), "FCV017"); len(ds) != 0 {
		t.Errorf("recognized latch fired FCV017: %+v", ds)
	}
}

func TestDeadDriversRule(t *testing.T) {
	rep := lintDeck(t, fcv018Deck, "dead")
	ds := findRule(rep, "FCV018")
	if len(ds) != 1 || ds[0].Subject != "g" {
		t.Fatalf("FCV018 = %+v, want exactly one on g", ds)
	}
	// FCV002 must stay quiet: a DC path exists, it just never conducts.
	if ds := findRule(rep, "FCV002"); len(ds) != 0 {
		t.Errorf("FCV002 double-reported the dead driver: %+v", ds)
	}
	if ds := findRule(lintDeck(t, fcv018Clean, "alive"), "FCV018"); len(ds) != 0 {
		t.Errorf("live driver fired FCV018: %+v", ds)
	}
}

// phaseRuleFixtures maps each new rule to a deck that fires it (FCV013
// uses a generated circuit and is handled separately where needed).
var phaseRuleFixtures = []struct {
	rule, deck, cell string
}{
	{"FCV011", fcv011Deck, "c2bad"},
	{"FCV012", fcv012Deck, "norabad"},
	{"FCV014", fcv014Deck, "fight"},
	{"FCV015", fcv015Deck, "cshare"},
	{"FCV016", fcv016Deck, "pnbad"},
	{"FCV017", fcv017Deck, "pfloat"},
	{"FCV018", fcv018Deck, "dead"},
}

// TestPhaseRuleWaivers proves waiver matching covers every new rule:
// a subject-specific waiver flips the finding to Waived (keeping it in
// the report), and waived errors stop driving HasErrors.
func TestPhaseRuleWaivers(t *testing.T) {
	for _, fx := range phaseRuleFixtures {
		base := lintDeck(t, fx.deck, fx.cell)
		subject := findRule(base, fx.rule)[0].Subject
		w, err := ParseWaivers(strings.NewReader(
			fx.rule + " " + fx.cell + " " + subject + " reviewed and accepted\n"))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(parseCell(t, fx.deck, fx.cell), Options{Waivers: w})
		if err != nil {
			t.Fatal(err)
		}
		ds := findRule(rep, fx.rule)
		if len(ds) == 0 {
			t.Errorf("%s: waived finding vanished from the report", fx.rule)
			continue
		}
		for _, d := range ds {
			if !d.Waived || d.WaiverNote != "reviewed and accepted" {
				t.Errorf("%s: diag not waived: %+v", fx.rule, d)
			}
		}
		if len(w.Unused()) != 0 {
			t.Errorf("%s: waiver reported unused", fx.rule)
		}
	}
	// The racy pipeline's FCV013 findings waive by wildcard too.
	w, err := ParseWaivers(strings.NewReader("FCV013 racy_pipe* * accepted race\n"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(designs.LatchPipeline(4, true), Options{Waivers: w})
	if err != nil {
		t.Fatal(err)
	}
	ds := findRule(rep, "FCV013")
	if len(ds) != 3 {
		t.Fatalf("FCV013 = %d, want 3", len(ds))
	}
	for _, d := range ds {
		if !d.Waived {
			t.Errorf("unwaived race: %+v", d)
		}
	}
}

// TestPhaseFindingIDsRenameInvariant pins the identity contract for the
// new family: renaming every internal net leaves each finding's ID
// unchanged, because IDs hash canonical structure, not names.
func TestPhaseFindingIDsRenameInvariant(t *testing.T) {
	rename := strings.NewReplacer(
		"n1", "zz41", "n2", "zz42", "t1", "zz43", "t2", "zz44",
		"dyn1", "zq1", "dyn2", "zq2", "out1", "zq3",
		"dyn", "zq0", "mpass y", "mpass qq", "min out y", "min out qq",
		"mip out y", "mip out qq", " g ", " hh ",
	)
	for _, fx := range phaseRuleFixtures {
		base := lintDeck(t, fx.deck, fx.cell)
		renamed := lintDeck(t, rename.Replace(fx.deck), fx.cell)
		a, b := findRule(base, fx.rule), findRule(renamed, fx.rule)
		if len(a) != len(b) || len(a) == 0 {
			t.Errorf("%s: findings %d vs %d after rename", fx.rule, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i].ID == "" || a[i].ID != b[i].ID {
				t.Errorf("%s: ID moved under rename: %q vs %q (subjects %s/%s)",
					fx.rule, a[i].ID, b[i].ID, a[i].Subject, b[i].Subject)
			}
		}
	}
}

// TestSortDiagsPinned pins the merged-report ordering contract: (cell,
// file, line, rule, ID, subject, message), ascending, so reports are a
// pure function of content at any worker count.
func TestSortDiagsPinned(t *testing.T) {
	mk := func(cell, file string, line int, rule, id string) Diag {
		return Diag{Rule: rule, Cell: cell, Subject: "s",
			Loc: netlist.Loc{File: file, Line: line}, ID: id}
	}
	want := []Diag{
		mk("a", "x.sp", 1, "FCV002", "lint/FCV002@02"),
		mk("a", "x.sp", 2, "FCV001", "lint/FCV001@01"),
		mk("a", "x.sp", 2, "FCV003", "lint/FCV003@03"),
		mk("a", "x.sp", 2, "FCV003", "lint/FCV003@04"),
		mk("a", "y.sp", 1, "FCV001", "lint/FCV001@05"),
		mk("b", "x.sp", 1, "FCV001", "lint/FCV001@06"),
	}
	// Feed them in reverse and let sortDiags restore the order.
	got := make([]Diag, len(want))
	for i := range want {
		got[len(want)-1-i] = want[i]
	}
	sortDiags(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
