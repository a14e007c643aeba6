package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/process"
)

// captureVerify runs runVerify with output captured to a file and the
// manifest written to a temp path, returning (output text, manifest).
func captureVerify(t *testing.T, args []string) (string, *obs.Manifest) {
	t.Helper()
	dir := t.TempDir()
	mpath := filepath.Join(dir, "m.json")
	outFile, err := os.CreateTemp(dir, "out")
	if err != nil {
		t.Fatal(err)
	}
	defer outFile.Close()
	proc, err := process.ByName("cmos075")
	if err != nil {
		t.Fatal(err)
	}
	full := append([]string{"-manifest", mpath}, args...)
	if err := runVerify(full, proc, 1e6/proc.ClockFreqMHz, outFile); err != nil {
		t.Fatalf("runVerify: %v", err)
	}
	text, err := os.ReadFile(outFile.Name())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifest(data); err != nil {
		t.Fatalf("manifest fails its own schema: %v", err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return string(text), &m
}

// stripVolatile zeroes the duration/timestamp fields, gauges and
// histogram contents — the documented run-variable half of the
// manifest. Histogram *names and bucket layout* are deterministic, so
// they are kept; only the wall-clock-derived counts and sums are masked.
func stripVolatile(m *obs.Manifest) {
	m.WallMS = 0
	for i := range m.Items {
		m.Items[i].ElapsedMS = 0
	}
	for i := range m.Stages {
		m.Stages[i].DurMS = 0
	}
	m.Gauges = map[string]float64{}
	for k, h := range m.Histograms {
		m.Histograms[k] = obs.Histogram{Counts: make([]int64, len(h.Counts))}
	}
}

// TestVerifyManifestEndToEnd is the acceptance check in miniature:
// the manifest validates, its counters match the printed cache totals
// exactly, its top-level stage durations cover most of the wall time,
// and it is byte-identical across runs modulo the volatile fields.
func TestVerifyManifestEndToEnd(t *testing.T) {
	deck := writeDeck(t, invDeck)
	args := []string{"-j", "4", "-cells", deck}
	text, m := captureVerify(t, args)

	// Counters vs the report's printed totals.
	re := regexp.MustCompile(`cache hits=(\d+) misses=(\d+)`)
	match := re.FindStringSubmatch(text)
	if match == nil {
		t.Fatalf("no cache totals in output:\n%s", text)
	}
	hits, _ := strconv.Atoi(match[1])
	misses, _ := strconv.Atoi(match[2])
	if m.Counters["fleet.cache.hits"] != int64(hits) || m.Counters["fleet.cache.misses"] != int64(misses) {
		t.Errorf("manifest counters hits=%d misses=%d, printed %d/%d",
			m.Counters["fleet.cache.hits"], m.Counters["fleet.cache.misses"], hits, misses)
	}

	// Per-stage durations must account for most of the wall clock.
	if m.WallMS > 0 && m.StageTotalMS() < 0.7*m.WallMS {
		t.Errorf("top-level stages %.3fms cover <70%% of wall %.3fms", m.StageTotalMS(), m.WallMS)
	}
	if m.ConfigKey == "" {
		t.Error("empty config key")
	}
	if len(m.Items) == 0 || m.Items[0].Fingerprint == "" {
		t.Errorf("items missing fingerprints: %+v", m.Items)
	}

	// Determinism modulo volatile fields.
	_, m2 := captureVerify(t, args)
	stripVolatile(m)
	stripVolatile(m2)
	b1, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("manifest not deterministic modulo volatile fields:\n--- run1 ---\n%s\n--- run2 ---\n%s", b1, b2)
	}
}

// TestVerifyTraceFlag smoke-tests -trace through the subcommand
// dispatcher (output goes to the process stdout).
func TestVerifyTraceFlag(t *testing.T) {
	deck := writeDeck(t, invDeck)
	if err := run("verify", []string{"-trace", "-quiet", deck}); err != nil {
		t.Errorf("verify -trace: %v", err)
	}
	if err := run("verify", []string{"-pprof-labels", "-quiet", deck}); err != nil {
		t.Errorf("verify -pprof-labels: %v", err)
	}
}

// TestManifestCheckCommand exercises valid, invalid and schema-print
// paths with their exit-code contracts.
func TestManifestCheckCommand(t *testing.T) {
	dir := t.TempDir()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	// A real manifest validates.
	deck := writeDeck(t, invDeck)
	mpath := filepath.Join(dir, "m.json")
	proc, _ := process.ByName("cmos075")
	if err := runVerify([]string{"-manifest", mpath, "-quiet", deck}, proc, 5000, devnull); err != nil {
		t.Fatal(err)
	}
	if err := runManifestCheck([]string{mpath}, devnull); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}

	// Garbage is the exit-1 family.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = runManifestCheck([]string{bad}, devnull)
	if !errors.Is(err, errManifestInvalid) {
		t.Errorf("invalid manifest error = %v, want errManifestInvalid", err)
	}
	if !isFindings(err) {
		t.Error("manifest invalidity not in the exit-1 family")
	}

	// Missing file is operational (exit 2).
	err = runManifestCheck([]string{filepath.Join(dir, "missing.json")}, devnull)
	if err == nil || errors.Is(err, errManifestInvalid) {
		t.Errorf("missing file error = %v, want operational failure", err)
	}

	// -print-schema emits the pinned schema bytes.
	schemaOut, err := os.CreateTemp(dir, "schema")
	if err != nil {
		t.Fatal(err)
	}
	defer schemaOut.Close()
	if err := runManifestCheck([]string{"-print-schema"}, schemaOut); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(schemaOut.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(obs.SchemaJSON()) {
		t.Error("-print-schema diverges from obs.SchemaJSON")
	}
}

// writeMetrics drops a BenchMetrics JSON for trend tests.
func writeMetrics(t *testing.T, dir, name string, m BenchMetrics) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTrendGate exercises the tolerance logic: within-tolerance and
// improvements pass, a past-tolerance drop fails with the exit-1
// marker, and a missing baseline passes.
func TestTrendGate(t *testing.T) {
	dir := t.TempDir()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	base := writeMetrics(t, dir, "base.json", BenchMetrics{
		RTLCyclesPerSec: 1000, VectorsPerSec: 100, CyclesPerDay: 400,
	})

	// 20% drop: inside ±30%, passes.
	ok := writeMetrics(t, dir, "ok.json", BenchMetrics{
		RTLCyclesPerSec: 800, VectorsPerSec: 90, CyclesPerDay: 500,
	})
	if err := runTrend([]string{"-baseline", base, ok}, devnull); err != nil {
		t.Errorf("within-tolerance run failed: %v", err)
	}

	// 50% drop on one metric: regression.
	badPath := writeMetrics(t, dir, "bad.json", BenchMetrics{
		RTLCyclesPerSec: 500, VectorsPerSec: 100, CyclesPerDay: 400,
	})
	err = runTrend([]string{"-baseline", base, badPath}, devnull)
	if !errors.Is(err, errTrendRegression) {
		t.Errorf("regression error = %v, want errTrendRegression", err)
	}

	// Tighter tolerance flips the 20% drop into a failure.
	err = runTrend([]string{"-baseline", base, "-tolerance", "10", ok}, devnull)
	if !errors.Is(err, errTrendRegression) {
		t.Errorf("tolerance 10 error = %v, want errTrendRegression", err)
	}

	// Missing baseline: first run passes.
	if err := runTrend([]string{"-baseline", filepath.Join(dir, "none.json"), ok}, devnull); err != nil {
		t.Errorf("missing baseline failed: %v", err)
	}

	// Zero-valued baseline metrics are skipped, not divided by.
	empty := writeMetrics(t, dir, "empty.json", BenchMetrics{})
	if err := runTrend([]string{"-baseline", empty, ok}, devnull); err != nil {
		t.Errorf("empty baseline failed: %v", err)
	}
}

// TestBenchManifest runs the bench with -manifest and validates the
// result (shortened workload).
func TestBenchManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("bench subcommand times real workloads")
	}
	dir := t.TempDir()
	outPath := filepath.Join(dir, "B.json")
	mPath := filepath.Join(dir, "bm.json")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if err := runBench([]string{"-out", outPath, "-cycles", "1000", "-manifest", mPath}, devnull); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifest(data); err != nil {
		t.Errorf("bench manifest invalid: %v", err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Counters["rtl.cycles"] != 1000 {
		t.Errorf("rtl.cycles = %d, want 1000", m.Counters["rtl.cycles"])
	}
	if m.Gauges["bench.rtl_cycles_per_sec"] <= 0 {
		t.Error("bench throughput gauge missing")
	}
	if m.Tool != "fcv bench" {
		t.Errorf("tool = %q", m.Tool)
	}
	// The corpus half is the first cold disk-cache pass: every item a
	// disk miss.
	if n := len(benchZoo()); len(m.Items) != n || m.Counters["fleet.diskcache.miss"] != int64(n) {
		t.Errorf("corpus half: %d items, %d disk misses, want %d each", len(m.Items), m.Counters["fleet.diskcache.miss"], n)
	}
}
