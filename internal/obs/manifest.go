package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// SchemaID identifies the manifest's wire format. Bump only with a
// schema change; the golden-file test pins the full schema document.
// v2 added per-item finding provenance (stable IDs + evidence) and
// duration histograms; any other schema ID is rejected.
const SchemaID = "fcv-run-manifest/v2"

// Manifest is the machine-readable record of one verification or bench
// run — the "reproducible, machine-readable performance evidence" layer.
// Field order is the wire order (encoding/json follows declaration
// order; map keys marshal sorted), so two runs over the same corpus and
// configuration produce byte-identical manifests modulo the duration,
// wall-clock and gauge fields.
type Manifest struct {
	// Schema is always SchemaID.
	Schema string `json:"schema"`
	// Tool names the producer: "fcv verify" or "fcv bench".
	Tool string `json:"tool"`
	// Trace is the serve daemon's per-request trace ID (the request's
	// X-Fcv-Trace header: daemon epoch + request sequence). It is the
	// volatile half — absent on batch runs, never compared by fcv diff —
	// and exists so a manifest fished out of an artifact store can be
	// joined back to its access-log line and slow-trace capture.
	Trace string `json:"trace,omitempty"`
	// ConfigKey is the verification configuration fingerprint (the
	// fleet cache's config key): equal keys mean comparable runs.
	ConfigKey string `json:"config_key"`
	// Workers is the resolved fleet parallelism (0 when not a fleet run).
	Workers int `json:"workers"`
	// WallMS is the whole run's wall clock in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Items are the per-design outcomes in input order.
	Items []ManifestItem `json:"items"`
	// Stages is the flattened span tree in preorder (deterministic
	// paths, volatile durations).
	Stages []SpanInfo `json:"stages"`
	// Counters are the run's named totals (cache traffic, worklist
	// iterations, cycles simulated, ...), sorted by name on the wire.
	Counters map[string]int64 `json:"counters"`
	// Gauges are named levels (worker utilization, throughput rates).
	Gauges map[string]float64 `json:"gauges"`
	// Histograms are fixed-bucket duration distributions (bucket bounds
	// are HistBoundsMS; counts are volatile, the layout is not).
	Histograms map[string]Histogram `json:"histograms"`
	// Verdicts tallies the corpus outcomes.
	Verdicts VerdictTally `json:"verdicts"`
}

// ManifestItem is one design's row in the manifest.
type ManifestItem struct {
	// Name is the corpus item label (deck:cell).
	Name string `json:"name"`
	// Fingerprint is the circuit's full structural hash (hex).
	Fingerprint string `json:"fingerprint"`
	// Verdict is "pass", "inspect", "violation" or "error".
	Verdict string `json:"verdict"`
	// Cached reports a memoized result.
	Cached bool `json:"cached"`
	// ElapsedMS is the item's wall-clock cost (volatile).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Findings are the item's provenanced non-pass findings in
	// deterministic order (source, check, subject, ID) — the rows
	// `fcv diff` tracks across runs by stable ID.
	Findings []Finding `json:"findings"`
	// Subcell names the hierarchy cell this item verifies when the run
	// was hierarchical; empty (omitted) for whole-netlist items.
	Subcell string `json:"subcell,omitempty"`
	// Parent names the subcell's first instantiating parent (omitted
	// for the top cell and flat items).
	Parent string `json:"parent,omitempty"`
	// DiskHit reports the result was replayed from the persistent
	// cache layer (omitted when false).
	DiskHit bool `json:"disk_hit,omitempty"`
}

// Finding is one provenanced verification finding: a check, lint or
// timing result with a stable rename-invariant identity and structured
// evidence. IDs are "<source>/<check>@<16-hex>" where the hex half is
// the subject's canonical structural signature (netlist.Signatures)
// folded with the check identity; structurally symmetric repeats carry
// "#n" suffixes.
type Finding struct {
	// ID is the stable identity findings are diffed by.
	ID string `json:"id"`
	// Source is the producing stage: "check", "lint", "timing", "error".
	Source string `json:"source"`
	// Check names the individual check, lint rule or timing analysis
	// ("beta-ratio", "FCV005", "setup", "hold", "verify").
	Check string `json:"check"`
	// Subject names the node, device or path endpoint concerned.
	Subject string `json:"subject"`
	// Severity is "inspect", "violation", "warn" or "error".
	Severity string `json:"severity"`
	// Margin is the normalized safety margin where the producer defines
	// one (checks battery), else 0.
	Margin float64 `json:"margin"`
	// Detail is the human-readable explanation.
	Detail string `json:"detail"`
	// Evidence is the structured context behind the finding.
	Evidence Evidence `json:"evidence"`
}

// Evidence is the structured context of a finding: what the tool
// looked at and what it measured, so reports and diffs can explain a
// verdict without re-running the pipeline.
type Evidence struct {
	// Devices are the names of the transistors involved (bounded).
	Devices []string `json:"devices"`
	// Nets are the nodes involved (subject first, bounded).
	Nets []string `json:"nets"`
	// Context describes the recognized topology around the subject
	// (logic family, dynamic/state-ness, capture clock).
	Context string `json:"context"`
	// Measured and Threshold are the compared quantities in Unit; for
	// normalized checks both are margins against 0.
	Measured  float64 `json:"measured"`
	Threshold float64 `json:"threshold"`
	// Unit names the quantity ("margin", "ps", "ratio").
	Unit string `json:"unit"`
}

// VerdictTally counts corpus outcomes by verdict.
type VerdictTally struct {
	Pass      int `json:"pass"`
	Inspect   int `json:"inspect"`
	Violation int `json:"violation"`
	Error     int `json:"error"`
}

// NewManifest seeds a manifest from the collector's spans, counters and
// gauges; the caller fills the corpus half (Items, Verdicts, Workers,
// WallMS). Works on a nil collector (empty telemetry).
func NewManifest(tool, configKey string, c *Collector) *Manifest {
	m := &Manifest{
		Schema:     SchemaID,
		Tool:       tool,
		ConfigKey:  configKey,
		Stages:     c.Spans(),
		Counters:   c.Counters(),
		Gauges:     c.Gauges(),
		Histograms: c.Histograms(),
	}
	m.normalize()
	return m
}

// normalize replaces nil slices and maps with empty ones, so the
// document always matches the schema's required array and object types.
func (m *Manifest) normalize() {
	if m.Items == nil {
		m.Items = []ManifestItem{}
	}
	if m.Stages == nil {
		m.Stages = []SpanInfo{}
	}
	if m.Counters == nil {
		m.Counters = map[string]int64{}
	}
	if m.Gauges == nil {
		m.Gauges = map[string]float64{}
	}
	if m.Histograms == nil {
		m.Histograms = map[string]Histogram{}
	}
	for i := range m.Items {
		if m.Items[i].Findings == nil {
			m.Items[i].Findings = []Finding{}
		}
		NormalizeFindings(m.Items[i].Findings)
	}
}

// NormalizeFindings replaces nil evidence lists with empty ones in
// place. A list that manifests share must be normalized before it is
// shared, so that their own normalize passes only read it.
func NormalizeFindings(fs []Finding) {
	for i := range fs {
		ev := &fs[i].Evidence
		if ev.Devices == nil {
			ev.Devices = []string{}
		}
		if ev.Nets == nil {
			ev.Nets = []string{}
		}
	}
}

// JSON marshals the manifest in its canonical indented form, trailing
// newline included: the layout of the files batch runs write. Nil
// slices and maps are normalized to empty first.
func (m *Manifest) JSON() ([]byte, error) {
	m.normalize()
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// CompactJSON marshals the same document as JSON on one line, trailing
// newline included: byte for byte json.Compact of JSON's output, without
// the indent pass. It is the daemon's wire layout, both the POST /verify
// body and the last line of its event stream.
func (m *Manifest) CompactJSON() ([]byte, error) {
	m.normalize()
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the manifest atomically (see WriteFileAtomic).
func (m *Manifest) WriteFile(path string) error {
	b, err := m.JSON()
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, b)
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory, fsync, and rename — so a reader (or a CI artifact upload)
// can never observe a truncated file, even if the writer is killed
// mid-write. The rename is atomic on POSIX filesystems.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// StageTotalMS sums the durations of the manifest's top-level (depth 0)
// stages — the quantity the acceptance check compares against WallMS:
// the root spans must cover ≥90% of the run's wall clock or the trace
// is missing a stage.
func (m *Manifest) StageTotalMS() float64 {
	var total float64
	for _, s := range m.Stages {
		if s.Depth == 0 {
			total += s.DurMS
		}
	}
	return total
}

// manifestFields is the schema/validator source of truth: the top-level
// object shape. typ is a JSON-Schema type name; "integer" means a JSON
// number with integral value.
type manifestField struct {
	name string
	typ  string
}

var manifestFields = []manifestField{
	{"schema", "string"},
	{"tool", "string"},
	{"config_key", "string"},
	{"workers", "integer"},
	{"wall_ms", "number"},
	{"items", "array"},
	{"stages", "array"},
	{"counters", "object"},
	{"gauges", "object"},
	{"histograms", "object"},
	{"verdicts", "object"},
}

// manifestOptionalFields are top-level v2 fields that may be absent:
// present they must type-check, absent they are fine. Batch manifests
// omit them; serve manifests carry them.
var manifestOptionalFields = []manifestField{
	{"trace", "string"},
}

var itemFields = []manifestField{
	{"name", "string"},
	{"fingerprint", "string"},
	{"verdict", "string"},
	{"cached", "boolean"},
	{"elapsed_ms", "number"},
	{"findings", "array"},
}

// itemOptionalFields are per-item v2 fields that may be absent: flat
// runs omit them; hierarchical runs carry subcell provenance (and any
// run may mark disk replays).
var itemOptionalFields = []manifestField{
	{"subcell", "string"},
	{"parent", "string"},
	{"disk_hit", "boolean"},
}

var findingFields = []manifestField{
	{"id", "string"},
	{"source", "string"},
	{"check", "string"},
	{"subject", "string"},
	{"severity", "string"},
	{"margin", "number"},
	{"detail", "string"},
	{"evidence", "object"},
}

var evidenceFields = []manifestField{
	{"devices", "array"},
	{"nets", "array"},
	{"context", "string"},
	{"measured", "number"},
	{"threshold", "number"},
	{"unit", "string"},
}

var histFields = []manifestField{
	{"counts", "array"},
	{"sum", "number"},
	{"count", "integer"},
}

var stageFields = []manifestField{
	{"path", "string"},
	{"depth", "integer"},
	{"dur_ms", "number"},
}

var verdictFields = []manifestField{
	{"pass", "integer"},
	{"inspect", "integer"},
	{"violation", "integer"},
	{"error", "integer"},
}

var itemVerdicts = map[string]bool{
	"pass": true, "inspect": true, "violation": true, "error": true,
}

var findingSources = map[string]bool{
	"check": true, "lint": true, "timing": true, "error": true, "boundary": true,
}

var findingSeverities = map[string]bool{
	"inspect": true, "violation": true, "warn": true, "error": true,
}

// SchemaJSON returns the manifest's JSON Schema (draft-07) document,
// generated from the same field tables the validator uses so the two
// cannot drift. The output is deterministic (map keys marshal sorted)
// and pinned by internal/obs/testdata/manifest.schema.json.
func SchemaJSON() []byte {
	obj := func(fields []manifestField, extra map[string]any) map[string]any {
		props := map[string]any{}
		required := make([]string, 0, len(fields))
		for _, f := range fields {
			p := map[string]any{"type": f.typ}
			if o, ok := extra[f.name]; ok {
				p = o.(map[string]any)
			}
			props[f.name] = p
			required = append(required, f.name)
		}
		return map[string]any{
			"type":                 "object",
			"required":             required,
			"additionalProperties": false,
			"properties":           props,
		}
	}
	intMin0 := map[string]any{"type": "integer", "minimum": 0}
	enum := func(vals ...string) map[string]any {
		return map[string]any{"type": "string", "enum": vals}
	}
	evidenceSchema := obj(evidenceFields, map[string]any{
		"devices": map[string]any{"type": "array", "items": map[string]any{"type": "string"}},
		"nets":    map[string]any{"type": "array", "items": map[string]any{"type": "string"}},
	})
	findingSchema := obj(findingFields, map[string]any{
		"source":   enum("check", "lint", "timing", "error", "boundary"),
		"severity": enum("inspect", "violation", "warn", "error"),
		"evidence": evidenceSchema,
	})
	histSchema := obj(histFields, map[string]any{
		"counts": map[string]any{
			"type":     "array",
			"items":    intMin0,
			"minItems": len(HistBoundsMS) + 1,
			"maxItems": len(HistBoundsMS) + 1,
		},
		"count": intMin0,
	})
	itemSchema := obj(itemFields, map[string]any{
		"verdict":  enum("pass", "inspect", "violation", "error"),
		"findings": map[string]any{"type": "array", "items": findingSchema},
	})
	// Optional per-item fields: in properties, not in required.
	for _, f := range itemOptionalFields {
		itemSchema["properties"].(map[string]any)[f.name] = map[string]any{"type": f.typ}
	}
	doc := obj(manifestFields, map[string]any{
		"schema":     map[string]any{"type": "string", "const": SchemaID},
		"workers":    intMin0,
		"wall_ms":    map[string]any{"type": "number", "minimum": 0},
		"items":      map[string]any{"type": "array", "items": itemSchema},
		"stages":     map[string]any{"type": "array", "items": obj(stageFields, map[string]any{"depth": intMin0})},
		"counters":   map[string]any{"type": "object", "additionalProperties": map[string]any{"type": "integer"}},
		"gauges":     map[string]any{"type": "object", "additionalProperties": map[string]any{"type": "number"}},
		"histograms": map[string]any{"type": "object", "additionalProperties": histSchema},
		"verdicts": obj(verdictFields, map[string]any{
			"pass": intMin0, "inspect": intMin0, "violation": intMin0, "error": intMin0,
		}),
	})
	// Optional top-level fields: in properties, not in required.
	for _, f := range manifestOptionalFields {
		doc["properties"].(map[string]any)[f.name] = map[string]any{"type": f.typ}
	}
	doc["$schema"] = "http://json-schema.org/draft-07/schema#"
	doc["$id"] = SchemaID
	doc["title"] = "fcv run manifest"
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static document; cannot fail
	}
	return append(b, '\n')
}

// ValidateManifest checks a manifest document against its schema: all
// required fields present with the right types, no unknown fields, the
// schema identifier SchemaID, item verdicts and finding severities from
// their enums, and every field the schema gives minimum 0 (workers,
// wall_ms, stage depths, histogram buckets and counts, verdict tallies)
// non-negative. Anything else is rejected with the offending field path
// named. It is the `fcv manifest-check` engine.
func ValidateManifest(data []byte) error {
	// Numbers stay literals (json.Number), so each numeric field is
	// checked against the text ParseManifest will decode: as a float64,
	// math.MaxInt64 and 2^63 are the same value.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("manifest: not valid JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("manifest: not valid JSON: data after the document")
	}
	if len(doc) == 0 {
		return fmt.Errorf("manifest: empty document, missing required field %q", "schema")
	}
	id, ok := doc["schema"].(string)
	if !ok {
		return fmt.Errorf("manifest: schema: missing or not a string")
	}
	if id != SchemaID {
		return fmt.Errorf("manifest: schema %q, want %q", id, SchemaID)
	}
	return validateV2(doc)
}

// validateV2 enforces the current wire format.
func validateV2(doc map[string]any) error {
	if err := checkObjectOpt("manifest", doc, manifestFields, manifestOptionalFields); err != nil {
		return err
	}
	if intValue(doc["workers"]) < 0 {
		return fmt.Errorf("manifest: workers: negative")
	}
	if numValue(doc["wall_ms"]) < 0 {
		return fmt.Errorf("manifest: wall_ms: negative")
	}
	for i, el := range doc["items"].([]any) {
		it, ok := el.(map[string]any)
		if !ok {
			return fmt.Errorf("manifest: items[%d]: not an object", i)
		}
		ctx := fmt.Sprintf("items[%d]", i)
		if err := checkObjectOpt(ctx, it, itemFields, itemOptionalFields); err != nil {
			return err
		}
		if v := it["verdict"].(string); !itemVerdicts[v] {
			return fmt.Errorf("manifest: %s.verdict: unknown verdict %q", ctx, v)
		}
		for j, fel := range it["findings"].([]any) {
			f, ok := fel.(map[string]any)
			if !ok {
				return fmt.Errorf("manifest: %s.findings[%d]: not an object", ctx, j)
			}
			fctx := fmt.Sprintf("%s.findings[%d]", ctx, j)
			if err := checkObject(fctx, f, findingFields); err != nil {
				return err
			}
			if v := f["source"].(string); !findingSources[v] {
				return fmt.Errorf("manifest: %s.source: unknown source %q", fctx, v)
			}
			if v := f["severity"].(string); !findingSeverities[v] {
				return fmt.Errorf("manifest: %s.severity: unknown severity %q", fctx, v)
			}
			ev := f["evidence"].(map[string]any)
			ectx := fctx + ".evidence"
			if err := checkObject(ectx, ev, evidenceFields); err != nil {
				return err
			}
			for _, listField := range []string{"devices", "nets"} {
				for k, s := range ev[listField].([]any) {
					if !isType(s, "string") {
						return fmt.Errorf("manifest: %s.%s[%d]: want string", ectx, listField, k)
					}
				}
			}
		}
	}
	for name, hel := range doc["histograms"].(map[string]any) {
		h, ok := hel.(map[string]any)
		if !ok {
			return fmt.Errorf("manifest: histograms[%q]: not an object", name)
		}
		hctx := fmt.Sprintf("histograms[%q]", name)
		if err := checkObject(hctx, h, histFields); err != nil {
			return err
		}
		counts := h["counts"].([]any)
		if len(counts) != len(HistBoundsMS)+1 {
			return fmt.Errorf("manifest: %s.counts: %d buckets, want %d", hctx, len(counts), len(HistBoundsMS)+1)
		}
		for i, v := range counts {
			if !isType(v, "integer") || intValue(v) < 0 {
				return fmt.Errorf("manifest: %s.counts[%d]: want non-negative integer", hctx, i)
			}
		}
		if intValue(h["count"]) < 0 {
			return fmt.Errorf("manifest: %s.count: negative", hctx)
		}
	}
	for i, el := range doc["stages"].([]any) {
		st, ok := el.(map[string]any)
		if !ok {
			return fmt.Errorf("manifest: stages[%d]: not an object", i)
		}
		ctx := fmt.Sprintf("stages[%d]", i)
		if err := checkObject(ctx, st, stageFields); err != nil {
			return err
		}
		if intValue(st["depth"]) < 0 {
			return fmt.Errorf("manifest: %s: negative depth", ctx)
		}
	}
	for k, v := range doc["counters"].(map[string]any) {
		if !isType(v, "integer") {
			return fmt.Errorf("manifest: counters[%q]: not an integer", k)
		}
	}
	for k, v := range doc["gauges"].(map[string]any) {
		if !isType(v, "number") {
			return fmt.Errorf("manifest: gauges[%q]: not a number", k)
		}
	}
	vt := doc["verdicts"].(map[string]any)
	if err := checkObject("verdicts", vt, verdictFields); err != nil {
		return err
	}
	for _, f := range verdictFields {
		if intValue(vt[f.name]) < 0 {
			return fmt.Errorf("manifest: verdicts.%s: negative", f.name)
		}
	}
	return nil
}

// ParseManifest validates a manifest document and decodes it into the
// in-memory form.
func ParseManifest(data []byte) (*Manifest, error) {
	if err := ValidateManifest(data); err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return &m, nil
}

// intValue is the value of a field that type-checked as "integer".
func intValue(v any) int64 {
	n, _ := v.(json.Number).Int64()
	return n
}

// numValue is the value of a field that type-checked as "number". A
// literal −0 reads as −0, which is not below zero.
func numValue(v any) float64 {
	n, _ := v.(json.Number).Float64()
	return n
}

// ReadManifestFile loads and parses a manifest from disk.
func ReadManifestFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// checkObject enforces exactly the given fields with the given types.
func checkObject(ctx string, o map[string]any, fields []manifestField) error {
	return checkObjectOpt(ctx, o, fields, nil)
}

// checkObjectOpt enforces the required fields plus any of the optional
// ones: required fields must be present with the right type, optional
// fields type-check only when present, and nothing else is allowed.
func checkObjectOpt(ctx string, o map[string]any, fields, optional []manifestField) error {
	known := make(map[string]string, len(fields)+len(optional))
	for _, f := range fields {
		known[f.name] = f.typ
		v, ok := o[f.name]
		if !ok {
			return fmt.Errorf("manifest: %s: missing required field %q", ctx, f.name)
		}
		if !isType(v, f.typ) {
			return fmt.Errorf("manifest: %s.%s: want %s", ctx, f.name, f.typ)
		}
	}
	for _, f := range optional {
		known[f.name] = f.typ
		if v, ok := o[f.name]; ok && !isType(v, f.typ) {
			return fmt.Errorf("manifest: %s.%s: want %s", ctx, f.name, f.typ)
		}
	}
	for k := range o {
		if _, ok := known[k]; !ok {
			return fmt.Errorf("manifest: %s: unknown field %q", ctx, k)
		}
	}
	return nil
}

// isType checks a decoded JSON value against a schema type name. A
// number must fit a float64 and an integer an int64, as the Manifest
// fields they decode into.
func isType(v any, typ string) bool {
	switch typ {
	case "string":
		_, ok := v.(string)
		return ok
	case "boolean":
		_, ok := v.(bool)
		return ok
	case "number":
		n, ok := v.(json.Number)
		_, err := n.Float64()
		return ok && err == nil
	case "integer":
		n, ok := v.(json.Number)
		_, err := n.Int64()
		return ok && err == nil
	case "array":
		_, ok := v.([]any)
		return ok
	case "object":
		_, ok := v.(map[string]any)
		return ok
	}
	return false
}
