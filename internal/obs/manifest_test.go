package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleManifest builds a small, fully-populated manifest.
func sampleManifest() *Manifest {
	c := New()
	root := c.Start("fleet")
	cell := root.Child("cellA")
	cell.Child("recognize").End()
	cell.End()
	root.End()
	c.Add("fleet.cache.hits", 1)
	c.SetGauge("fleet.workers", 2)
	c.Observe("fleet.item_ms", 1.2)
	m := NewManifest("fcv verify", "proc=x|clock=5000", c)
	m.Workers = 2
	m.WallMS = 1.5
	m.Items = append(m.Items, ManifestItem{
		Name:        "cellA",
		Fingerprint: strings.Repeat("ab", 32),
		Verdict:     "inspect",
		Cached:      false,
		ElapsedMS:   1.2,
		Findings: []Finding{{
			ID:       "check/beta-ratio@00deadbeef00cafe",
			Source:   "check",
			Check:    "beta-ratio",
			Subject:  "out",
			Severity: "inspect",
			Margin:   -0.12,
			Detail:   "beta ratio 4.1 outside [1.5, 3.5]",
			Evidence: Evidence{
				Devices:   []string{"MP1", "MN1"},
				Nets:      []string{"out"},
				Context:   "static CMOS, driver group of out",
				Measured:  -0.12,
				Threshold: 0,
				Unit:      "margin",
			},
		}},
	})
	m.Verdicts = VerdictTally{Inspect: 1}
	return m
}

// TestSchemaGolden pins the manifest JSON Schema byte for byte. A
// diff here means the wire format changed: bump SchemaID and
// regenerate with `fcv manifest-check -print-schema`.
func TestSchemaGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "manifest.schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := SchemaJSON()
	if !bytes.Equal(got, golden) {
		t.Errorf("SchemaJSON drifted from testdata/manifest.schema.json:\n--- got ---\n%s\n--- golden ---\n%s", got, golden)
	}
}

// TestManifestValidates round-trips a built manifest through the
// validator.
func TestManifestValidates(t *testing.T) {
	b, err := sampleManifest().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateManifest(b); err != nil {
		t.Errorf("built manifest rejected: %v", err)
	}
	// Empty telemetry (nil collector) must also validate.
	empty := NewManifest("fcv bench", "", nil)
	b, err = empty.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateManifest(b); err != nil {
		t.Errorf("empty manifest rejected: %v", err)
	}
}

// TestValidateRejects walks the failure modes: each mutation of a
// valid document must be named in the error.
func TestValidateRejects(t *testing.T) {
	valid, err := sampleManifest().JSON()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(fn func(doc map[string]any)) []byte {
		var doc map[string]any
		if err := json.Unmarshal(valid, &doc); err != nil {
			t.Fatal(err)
		}
		fn(doc)
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"not json", []byte("{truncated"), "not valid JSON"},
		{"truncated", []byte(`{"schema": "fcv-run-manifest/v2", "tool"`), "not valid JSON"},
		{"empty file", []byte(""), "not valid JSON"},
		{"empty object", []byte("{}"), "missing required field \"schema\""},
		{"missing field", mutate(func(d map[string]any) { delete(d, "config_key") }), "manifest: missing required field \"config_key\""},
		{"wrong type", mutate(func(d map[string]any) { d["workers"] = "four" }), "manifest.workers: want integer"},
		{"float counter", mutate(func(d map[string]any) {
			d["counters"].(map[string]any)["fleet.cache.hits"] = 1.5
		}), "counters[\"fleet.cache.hits\"]: not an integer"},
		{"counter past int64", mutate(func(d map[string]any) {
			d["counters"].(map[string]any)["fleet.cache.hits"] = json.Number("9223372036854775808")
		}), "counters[\"fleet.cache.hits\"]: not an integer"},
		{"data after the document", append(valid[:len(valid):len(valid)], "{}"...), "not valid JSON"},
		{"unknown field", mutate(func(d map[string]any) { d["extra"] = 1 }), "unknown field"},
		{"stale schema id", mutate(func(d map[string]any) { d["schema"] = "fcv-run-manifest/v0" }), "schema \"fcv-run-manifest/v0\", want \"fcv-run-manifest/v2\""},
		{"bad verdict", mutate(func(d map[string]any) {
			d["items"].([]any)[0].(map[string]any)["verdict"] = "maybe"
		}), "items[0].verdict: unknown verdict"},
		{"item missing field", mutate(func(d map[string]any) {
			delete(d["items"].([]any)[0].(map[string]any), "fingerprint")
		}), "items[0]: missing required field \"fingerprint\""},
		{"negative tally", mutate(func(d map[string]any) {
			d["verdicts"].(map[string]any)["pass"] = -1.0
		}), "verdicts.pass: negative"},
		{"finding bad source", mutate(func(d map[string]any) {
			it := d["items"].([]any)[0].(map[string]any)
			f := it["findings"].([]any)[0].(map[string]any)
			f["source"] = "vibes"
		}), "items[0].findings[0].source: unknown source"},
		{"finding missing evidence field", mutate(func(d map[string]any) {
			it := d["items"].([]any)[0].(map[string]any)
			f := it["findings"].([]any)[0].(map[string]any)
			delete(f["evidence"].(map[string]any), "unit")
		}), "items[0].findings[0].evidence: missing required field \"unit\""},
		{"histogram bucket drift", mutate(func(d map[string]any) {
			h := d["histograms"].(map[string]any)["fleet.item_ms"].(map[string]any)
			h["counts"] = []any{1.0, 2.0}
		}), "histograms[\"fleet.item_ms\"].counts: 2 buckets"},
	}
	for _, tc := range cases {
		err := ValidateManifest(tc.data)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestValidateRejectsNegative pins every minimum 0 that SchemaJSON
// declares for a field the validator reads as a number: each negative
// value is rejected with its field path named, and −0 is accepted.
func TestValidateRejectsNegative(t *testing.T) {
	valid, err := sampleManifest().JSON()
	if err != nil {
		t.Fatal(err)
	}
	doc := func(fn func(doc map[string]any)) []byte {
		var d map[string]any
		if err := json.Unmarshal(valid, &d); err != nil {
			t.Fatal(err)
		}
		fn(d)
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	hist := func(d map[string]any) map[string]any {
		return d["histograms"].(map[string]any)["fleet.item_ms"].(map[string]any)
	}
	cases := []struct {
		name    string
		set     func(d map[string]any, v json.Number)
		wantErr string
	}{
		{"workers", func(d map[string]any, v json.Number) { d["workers"] = v }, "manifest: workers: negative"},
		{"wall_ms", func(d map[string]any, v json.Number) { d["wall_ms"] = v }, "manifest: wall_ms: negative"},
		{"histogram count", func(d map[string]any, v json.Number) { hist(d)["count"] = v }, "manifest: histograms[\"fleet.item_ms\"].count: negative"},
	}
	for _, tc := range cases {
		neg := json.Number("-3")
		if tc.name == "wall_ms" {
			neg = "-1.5"
		}
		err := ValidateManifest(doc(func(d map[string]any) { tc.set(d, neg) }))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s %s: error %v, want one mentioning %q", tc.name, neg, err, tc.wantErr)
		}
		if err := ValidateManifest(doc(func(d map[string]any) { tc.set(d, "-0") })); err != nil {
			t.Errorf("%s -0: rejected: %v", tc.name, err)
		}
	}
}

// TestValidateRejectsV1 pins that the retired v1 wire format (no
// histograms, no per-item findings) is rejected, by both the validator
// and the parser, with an error naming the schema it was given.
func TestValidateRejectsV1(t *testing.T) {
	v1 := []byte(`{
  "schema": "fcv-run-manifest/v1",
  "tool": "fcv verify",
  "config_key": "proc=x|clock=5000",
  "workers": 2,
  "wall_ms": 1.5,
  "items": [
    {
      "name": "cellA",
      "fingerprint": "` + strings.Repeat("ab", 32) + `",
      "verdict": "pass",
      "cached": false,
      "elapsed_ms": 1.2
    }
  ],
  "stages": [{"path": "fleet", "depth": 0, "dur_ms": 1.4}],
  "counters": {"fleet.cache.hits": 1},
  "gauges": {"fleet.workers": 2},
  "verdicts": {"pass": 1, "inspect": 0, "violation": 0, "error": 0}
}`)
	if err := ValidateManifest(v1); err == nil || !strings.Contains(err.Error(), `"fcv-run-manifest/v1"`) {
		t.Errorf("v1 manifest: ValidateManifest error %v, want one naming fcv-run-manifest/v1", err)
	}
	if _, err := ParseManifest(v1); err == nil || !strings.Contains(err.Error(), `"fcv-run-manifest/v1"`) {
		t.Errorf("v1 manifest: ParseManifest error %v, want one naming fcv-run-manifest/v1", err)
	}
}

// TestParseManifestRoundTrip writes a v2 manifest and reads it back.
func TestParseManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	want := sampleManifest()
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ConfigKey != want.ConfigKey || len(got.Items) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	f := got.Items[0].Findings
	if len(f) != 1 || f[0].ID != want.Items[0].Findings[0].ID {
		t.Errorf("findings lost in round trip: %+v", f)
	}
	if _, ok := got.Histograms["fleet.item_ms"]; !ok {
		t.Errorf("histograms lost in round trip: %+v", got.Histograms)
	}
	if _, err := ReadManifestFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("reading a missing file succeeded")
	}
}

// TestStageTotalMS sums only top-level spans.
func TestStageTotalMS(t *testing.T) {
	m := &Manifest{Stages: []SpanInfo{
		{Path: "fleet", Depth: 0, DurMS: 10},
		{Path: "fleet/a", Depth: 1, DurMS: 6},
		{Path: "rtl", Depth: 0, DurMS: 5},
	}}
	if got := m.StageTotalMS(); got != 15 {
		t.Errorf("StageTotalMS = %g, want 15", got)
	}
}

// TestWriteFileAtomic checks content, overwrite semantics, and that no
// temp litter survives.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Errorf("content = %q, want %q", got, "second")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp files left behind: %v", entries)
	}
	// Missing parent directory is an error, not a panic.
	if err := WriteFileAtomic(filepath.Join(dir, "no/such/dir/x.json"), []byte("x")); err == nil {
		t.Error("write into missing directory succeeded")
	}
}

// TestManifestWriteFile round-trips through the file.
func TestManifestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := sampleManifest().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateManifest(data); err != nil {
		t.Errorf("written manifest invalid: %v", err)
	}
}
