package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/process"
)

// multiCellDeck is a small corpus of structurally distinct cells —
// twin-free, so cache attribution (and therefore the event stream) is
// deterministic at any worker count.
const multiCellDeck = `
.subckt inv a y
mn y a vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
.ends
.subckt nand2 a b y
mna y a m vss nmos w=4 l=0.75
mnb m b vss vss nmos w=4 l=0.75
mpa y a vdd vdd pmos w=4 l=0.75
mpb y b vdd vdd pmos w=4 l=0.75
.ends
.subckt buf a y
mn1 m a vss vss nmos w=2 l=0.75
mp1 m a vdd vdd pmos w=4 l=0.75
mn2 y m vss vss nmos w=3 l=0.75
mp2 y m vdd vdd pmos w=6 l=0.75
.ends
`

// verifyToManifest runs the verify subcommand over args writing the
// manifest (and optionally the event stream) to the returned paths.
func verifyToManifest(t *testing.T, dir, tag string, jobs string, extra ...string) (string, string) {
	t.Helper()
	mpath := filepath.Join(dir, "m_"+tag+".json")
	epath := filepath.Join(dir, "e_"+tag+".jsonl")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	proc, err := process.ByName("cmos075")
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-manifest", mpath, "-events", epath, "-j", jobs, "-quiet"}, extra...)
	err = runVerify(args, proc, 1e6/proc.ClockFreqMHz, devnull)
	if err != nil && !errors.Is(err, errVerifyFindings) {
		t.Fatalf("runVerify(%s): %v", tag, err)
	}
	return mpath, epath
}

// TestDiffIdenticalRuns is the acceptance check: diffing manifests of
// the same corpus produced at different worker counts reports nothing
// and exits clean.
func TestDiffIdenticalRuns(t *testing.T) {
	dir := t.TempDir()
	deck := writeDeck(t, multiCellDeck)
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	base, _ := verifyToManifest(t, dir, "j1", "1", "-cells", deck)
	for _, j := range []string{"1", "4", "16"} {
		cur, _ := verifyToManifest(t, dir, "j"+j+"b", j, "-cells", deck)
		if err := runDiff([]string{base, cur}, devnull); err != nil {
			t.Errorf("diff of identical corpus at j=%s: %v", j, err)
		}
	}
}

// TestDiffSeededDefect seeds a defective deck into the corpus and
// checks that diff flags exactly its findings as new, by stable ID,
// with the findings exit code.
func TestDiffSeededDefect(t *testing.T) {
	dir := t.TempDir()
	clean := writeDeck(t, multiCellDeck)

	base, _ := verifyToManifest(t, dir, "base", "2", "-lint", "-cells", clean)
	cur, _ := verifyToManifest(t, dir, "cur", "2", "-lint", "-cells", clean, brokenDeck)

	outFile, err := os.CreateTemp(dir, "diffout")
	if err != nil {
		t.Fatal(err)
	}
	defer outFile.Close()
	err = runDiff([]string{base, cur}, outFile)
	if !errors.Is(err, errDiffNewFindings) {
		t.Fatalf("diff with seeded defect = %v, want errDiffNewFindings", err)
	}
	if !isFindings(err) {
		t.Error("new findings not in the exit-1 family")
	}
	text, err := os.ReadFile(outFile.Name())
	if err != nil {
		t.Fatal(err)
	}
	out := string(text)
	if !strings.Contains(out, "NEW") {
		t.Errorf("diff output lists no NEW findings:\n%s", out)
	}
	if strings.Contains(out, "FIXED") {
		t.Errorf("clean cells reported as fixed:\n%s", out)
	}

	// Every NEW line must carry a stable ID from the current manifest.
	m, err := obs.ReadManifestFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, it := range m.Items {
		for _, f := range it.Findings {
			ids[f.ID] = true
		}
	}
	var newLines int
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "NEW") {
			continue
		}
		newLines++
		var found bool
		for id := range ids {
			if strings.Contains(line, id) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("NEW line carries no manifest finding ID: %s", line)
		}
	}
	if newLines == 0 {
		t.Error("no NEW lines rendered")
	}

	// The reverse diff sees the same findings as fixed, and passes.
	revOut, err := os.CreateTemp(dir, "revout")
	if err != nil {
		t.Fatal(err)
	}
	defer revOut.Close()
	if err := runDiff([]string{cur, base}, revOut); err != nil {
		t.Errorf("reverse diff (defect removed) = %v, want nil", err)
	}
	rev, _ := os.ReadFile(revOut.Name())
	if !strings.Contains(string(rev), "FIXED") {
		t.Errorf("reverse diff lists no FIXED findings:\n%s", rev)
	}
}

// TestDiffPhaseFixturesAcrossWorkers locks the new FCV011–FCV018
// fixtures into the determinism spine: verify -lint over the seeded and
// clean phase decks produces manifests that diff clean across j=1/4/16,
// and the seeded findings carry stable IDs that survive the worker
// sweep (same ID set at every j).
func TestDiffPhaseFixturesAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	decks := []string{
		"../../examples/decks/c2mos_pipe.sp",
		"../../examples/decks/c2mos_pipe_clean.sp",
		"../../examples/decks/nora_stage.sp",
		"../../examples/decks/nora_stage_clean.sp",
		"../../examples/decks/sneak_path.sp",
		"../../examples/decks/sneak_path_clean.sp",
	}
	args := append([]string{"-lint", "-cells"}, decks...)
	base, _ := verifyToManifest(t, dir, "pj1", "1", args...)

	m, err := obs.ReadManifestFile(base)
	if err != nil {
		t.Fatal(err)
	}
	baseIDs := map[string]bool{}
	for _, it := range m.Items {
		for _, f := range it.Findings {
			baseIDs[f.ID] = true
		}
	}
	if len(baseIDs) == 0 {
		t.Fatal("seeded fixtures produced no findings in the manifest")
	}

	for _, j := range []string{"4", "16"} {
		cur, _ := verifyToManifest(t, dir, "pj"+j, j, args...)
		if err := runDiff([]string{base, cur}, devnull); err != nil {
			t.Errorf("diff of phase fixtures j=1 vs j=%s: %v", j, err)
		}
		mc, err := obs.ReadManifestFile(cur)
		if err != nil {
			t.Fatal(err)
		}
		curIDs := map[string]bool{}
		for _, it := range mc.Items {
			for _, f := range it.Findings {
				curIDs[f.ID] = true
				if !baseIDs[f.ID] {
					t.Errorf("j=%s introduced finding ID %s missing at j=1", j, f.ID)
				}
			}
		}
		if len(curIDs) != len(baseIDs) {
			t.Errorf("j=%s finding IDs = %d, want %d", j, len(curIDs), len(baseIDs))
		}
	}
}

// TestDiffRenameInvariance renames the deck file (which renames every
// item, since -cells items are named deck:cell) and checks the diff is
// still empty: matching is by structural fingerprint, not item name.
func TestDiffRenameInvariance(t *testing.T) {
	dir := t.TempDir()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	a := filepath.Join(dir, "alpha.sp")
	if err := os.WriteFile(a, []byte(multiCellDeck), 0o644); err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(dir, "beta.sp")
	if err := os.WriteFile(b, []byte(multiCellDeck), 0o644); err != nil {
		t.Fatal(err)
	}
	m1, _ := verifyToManifest(t, dir, "alpha", "2", "-cells", a)
	m2, _ := verifyToManifest(t, dir, "beta", "2", "-cells", b)
	if err := runDiff([]string{m1, m2}, devnull); err != nil {
		t.Errorf("diff across renamed decks: %v", err)
	}
}

// TestDiffUnreadable checks the operational-failure contract.
func TestDiffUnreadable(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	err = runDiff([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, devnull)
	if err == nil || isFindings(err) {
		t.Errorf("unreadable manifests = %v, want operational failure", err)
	}
}

// maskEventTimes zeroes the t_ms stamp on every event line, the one
// documented-volatile field, and returns the re-marshalled stream.
func maskEventTimes(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out strings.Builder
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		ev.TMS = 0
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestEventStreamDeterministic is the tentpole acceptance: the JSONL
// event stream is byte-identical across runs and worker counts once
// the wall-clock stamps are masked.
func TestEventStreamDeterministic(t *testing.T) {
	dir := t.TempDir()
	deck := writeDeck(t, multiCellDeck)

	_, e1 := verifyToManifest(t, dir, "ev1", "1", "-cells", deck)
	ref := maskEventTimes(t, e1)
	if ref == "" {
		t.Fatal("empty event stream")
	}
	for _, want := range []string{`"run-start"`, `"run-end"`, `"item-start"`, `"stage-start"`, `"stage-end"`, `"item-end"`} {
		if !strings.Contains(ref, want) {
			t.Errorf("event stream missing %s events", want)
		}
	}
	for i, j := range []string{"1", "4", "16"} {
		_, e := verifyToManifest(t, dir, "ev_rep"+j, j, "-cells", deck)
		if got := maskEventTimes(t, e); got != ref {
			t.Errorf("event stream differs at j=%s (run %d):\n--- j=1 ---\n%s\n--- j=%s ---\n%s", j, i, ref, j, got)
		}
	}
}

// TestEventStreamFindings checks finding events carry the same stable
// IDs the manifest records.
func TestEventStreamFindings(t *testing.T) {
	dir := t.TempDir()
	mpath, epath := verifyToManifest(t, dir, "find", "2", "-lint", "-cells", brokenDeck)
	m, err := obs.ReadManifestFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, it := range m.Items {
		for _, f := range it.Findings {
			want[f.ID] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("broken deck produced no findings in the manifest")
	}
	stream := maskEventTimes(t, epath)
	got := map[string]bool{}
	for _, line := range strings.Split(stream, "\n") {
		if line == "" {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "finding" {
			got[ev.ID] = true
		}
	}
	for id := range want {
		if !got[id] {
			t.Errorf("manifest finding %s never streamed as an event", id)
		}
	}
	for id := range got {
		if !want[id] {
			t.Errorf("streamed finding %s absent from the manifest", id)
		}
	}
}

// TestTrendMetricKeyDrift is the satellite contract: a baseline whose
// metric set drifted (keys missing entirely) is skipped with a warning
// rather than misread as zero and failed.
func TestTrendMetricKeyDrift(t *testing.T) {
	dir := t.TempDir()
	// Baseline from a hypothetical older fcv: one watched key missing,
	// one unknown extra key.
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(`{"rtl_cycles_per_sec": 1000, "legacy_metric": 42}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cur := writeMetrics(t, dir, "cur.json", BenchMetrics{
		RTLCyclesPerSec: 900, VectorsPerSec: 100, CyclesPerDay: 400,
	})
	outFile, err := os.CreateTemp(dir, "trendout")
	if err != nil {
		t.Fatal(err)
	}
	defer outFile.Close()
	if err := runTrend([]string{"-baseline", old, cur}, outFile); err != nil {
		t.Errorf("drifted baseline failed the gate: %v", err)
	}
	text, _ := os.ReadFile(outFile.Name())
	if !strings.Contains(string(text), "metric-key drift") {
		t.Errorf("no drift warning printed:\n%s", text)
	}
	// The still-shared key is compared: a past-tolerance drop on it fails.
	bad := writeMetrics(t, dir, "bad.json", BenchMetrics{RTLCyclesPerSec: 100})
	err = runTrend([]string{"-baseline", old, bad}, outFile)
	if !errors.Is(err, errTrendRegression) {
		t.Errorf("regression on shared key = %v, want errTrendRegression", err)
	}
}

// TestTrendWatchesLaneMetrics pins the bit-parallel throughput keys
// into the watched set — losing them from trendMetrics would silently
// stop gating the packed kernels — and checks a regression on one of
// them actually fails.
func TestTrendWatchesLaneMetrics(t *testing.T) {
	watched := map[string]bool{}
	for _, k := range trendMetrics {
		watched[k] = true
	}
	for _, k := range []string{"vectors_per_sec", "cycles_per_day", "lane_parallel_speedup"} {
		if !watched[k] {
			t.Errorf("trendMetrics does not watch %q", k)
		}
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, []byte(`{"vectors_per_sec": 1000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, "cur.json")
	if err := os.WriteFile(cur, []byte(`{"vectors_per_sec": 100}`), 0o644); err != nil {
		t.Fatal(err)
	}
	outFile, err := os.CreateTemp(dir, "trendout")
	if err != nil {
		t.Fatal(err)
	}
	defer outFile.Close()
	if err := runTrend([]string{"-baseline", base, cur}, outFile); !errors.Is(err, errTrendRegression) {
		t.Errorf("lane-metric regression = %v, want errTrendRegression", err)
	}
}
