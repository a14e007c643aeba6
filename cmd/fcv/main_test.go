package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// writeDeck drops a SPICE deck into a temp dir.
func writeDeck(t *testing.T, contents string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "deck.sp")
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const invDeck = `
.subckt inv a y
mn y a vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
.ends
x1 in mid inv
x2 mid out inv
`

func TestLoadFlatTopElements(t *testing.T) {
	flat, err := loadFlat([]string{writeDeck(t, invDeck)})
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Devices) != 4 {
		t.Errorf("devices = %d, want 4", len(flat.Devices))
	}
}

func TestLoadFlatNamedTop(t *testing.T) {
	deck := ".subckt cell a y\nmn y a vss vss nmos w=2 l=0.75\nmp y a vdd vdd pmos w=4 l=0.75\n.ends\n"
	flat, err := loadFlat([]string{writeDeck(t, deck), "cell"})
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Devices) != 2 {
		t.Errorf("devices = %d", len(flat.Devices))
	}
	if _, err := loadFlat([]string{writeDeck(t, deck), "nosuch"}); err == nil {
		t.Error("unknown top accepted")
	}
}

func TestLoadFlatAllSubcktsPicksLast(t *testing.T) {
	deck := ".subckt a p\nmn p vdd vss vss nmos w=2 l=0.75\n.ends\n" +
		".subckt b p\nmn p vdd vss vss nmos w=2 l=0.75\n.ends\n"
	flat, err := loadFlat([]string{writeDeck(t, deck)})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Name != "b.flat" {
		t.Errorf("top = %s, want b.flat (last cell)", flat.Name)
	}
}

func TestRunSubcommands(t *testing.T) {
	deck := writeDeck(t, invDeck)
	for _, cmd := range []string{"verify", "recog", "checks", "timing", "layout", "cbc"} {
		if err := run(cmd, []string{deck}); err != nil {
			t.Errorf("%s: %v", cmd, err)
		}
	}
	if err := run("power", nil); err != nil {
		t.Errorf("power: %v", err)
	}
	if err := run("nonsense", []string{deck}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run("verify", nil); err == nil {
		t.Error("missing deck accepted")
	}
}

func TestRunSim(t *testing.T) {
	src := "module top( -> c[8])\nreg r[8] @phi1\non phi1: r <= r + 1\nassign c = r\nendmodule\n"
	path := filepath.Join(t.TempDir(), "cnt.fcl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("sim", []string{path, "10"}); err != nil {
		t.Errorf("sim: %v", err)
	}
	if err := run("sim", []string{path, "x"}); err == nil {
		t.Error("bad cycle count accepted")
	}
	if err := run("sim", []string{path}); err == nil {
		t.Error("missing cycle count accepted")
	}
}

func TestRunVerifyFleetModes(t *testing.T) {
	deck := writeDeck(t, invDeck)
	// Flags + multiple decks + per-cell corpus.
	if err := run("verify", []string{"-j", "2", deck}); err != nil {
		t.Errorf("verify -j 2: %v", err)
	}
	if err := run("verify", []string{"-cells", "-quiet", deck}); err != nil {
		t.Errorf("verify -cells: %v", err)
	}
	if err := run("verify", []string{deck, deck}); err != nil {
		t.Errorf("verify two decks: %v", err)
	}
	// Named top still works as the trailing positional.
	namedDeck := writeDeck(t, ".subckt cell a y\nmn y a vss vss nmos w=2 l=0.75\nmp y a vdd vdd pmos w=4 l=0.75\n.ends\n")
	if err := run("verify", []string{namedDeck, "cell"}); err != nil {
		t.Errorf("verify named top: %v", err)
	}
	if err := run("verify", []string{"-cells", namedDeck, "cell"}); err == nil {
		t.Error("top name with -cells accepted")
	}
}

// TestRunBenchWritesMetrics guards the gates that read the bench JSON:
// every key the trend gate watches and every key a CI jq floor reads
// must be written, and positive. Decoding into a raw map (not
// BenchMetrics) is what makes a key the bench stopped writing fail
// here, instead of the gate silently skipping it as key drift.
func TestRunBenchWritesMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("bench subcommand times real workloads")
	}
	out := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	if err := run("bench", []string{"-out", out, "-cycles", "2000"}); err != nil {
		t.Fatalf("bench: %v", err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	for _, k := range append(ciFloorKeys(t), trendMetrics...) {
		if v, ok := raw[k].(float64); !ok || v <= 0 {
			t.Errorf("%s = %v, want a positive number", k, raw[k])
		}
	}
}

// ciFloorKeys returns the BENCH_fleet.json keys read by the jq floors
// in the CI workflow.
func ciFloorKeys(t *testing.T) []string {
	t.Helper()
	ci, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	jqExpr := regexp.MustCompile(`jq '([^']*)' BENCH_fleet\.json`)
	jqKey := regexp.MustCompile(`\.([a-z][a-z0-9_]*)`)
	var keys []string
	for _, e := range jqExpr.FindAllStringSubmatch(string(ci), -1) {
		for _, k := range jqKey.FindAllStringSubmatch(e[1], -1) {
			keys = append(keys, k[1])
		}
	}
	if len(keys) == 0 {
		t.Fatal("ci.yml has no jq floor over BENCH_fleet.json")
	}
	return keys
}
