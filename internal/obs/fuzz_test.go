package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"
)

// fuzzGen turns a fuzz input into typed values, byte by byte; once the
// input runs out every value is zero. badUTF8 records whether any
// string it handed out is invalid UTF-8.
type fuzzGen struct {
	b       []byte
	badUTF8 bool
}

func (g *fuzzGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *fuzzGen) uint64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(g.byte())
	}
	return v
}

// str returns up to 15 raw input bytes: any byte string, control bytes,
// <>&, U+2028 and invalid UTF-8 included.
func (g *fuzzGen) str() string {
	n := min(int(g.byte()%16), len(g.b))
	s := string(g.b[:n])
	g.b = g.b[n:]
	if !utf8.ValidString(s) {
		g.badUTF8 = true
	}
	return s
}

// pick returns one of vals.
func (g *fuzzGen) pick(vals ...string) string {
	return vals[int(g.byte())%len(vals)]
}

// int64 returns a small value, an edge of the int64 and float64-exact
// ranges, or any 64 bits.
func (g *fuzzGen) int64() int64 {
	switch g.byte() % 4 {
	case 0:
		return int64(int8(g.byte()))
	case 1:
		edges := []int64{math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1, -(1 << 53) - 1}
		return edges[int(g.byte())%len(edges)]
	}
	return int64(g.uint64())
}

// natural is int64 folded onto the non-negative half.
func (g *fuzzGen) natural() int64 {
	v := g.int64()
	if v < 0 {
		v = ^v
	}
	return v
}

// float returns a short decimal, an edge value (−0, the smallest and
// largest magnitudes, the points where encoding/json switches to
// exponent form, NaN, ±Inf) or any 64 bits.
func (g *fuzzGen) float() float64 {
	switch g.byte() % 4 {
	case 0:
		return float64(int8(g.byte())) / 8
	case 1:
		edges := []float64{
			math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			math.MaxFloat64, -math.MaxFloat64, 1e21, 1e-7, math.NaN(), math.Inf(1), math.Inf(-1),
		}
		return edges[int(g.byte())%len(edges)]
	}
	return math.Float64frombits(g.uint64())
}

// unsigned is float with its sign dropped, −0 kept.
func (g *fuzzGen) unsigned() float64 {
	v := g.float()
	if v < 0 {
		v = -v
	}
	return v
}

// finite is float with NaN and ±Inf read as 0.
func (g *fuzzGen) finite() float64 {
	v := g.float()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// size returns −1 (nil), 0 (empty), 1 or 2.
func (g *fuzzGen) size() int { return int(g.byte()%4) - 1 }

// list makes a nil, empty or short slice of generated elements.
func list[T any](g *fuzzGen, elem func() T) []T {
	n := g.size()
	if n < 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

// dict makes a nil, empty or small map with generated keys.
func dict[V any](g *fuzzGen, val func() V) map[string]V {
	n := g.size()
	if n < 0 {
		return nil
	}
	out := make(map[string]V, n)
	for range n {
		out[g.str()] = val()
	}
	return out
}

// manifest decodes the input into a manifest that sets every field,
// with every enum from its set and every count, depth and tally
// non-negative: one the schema accepts whenever its strings are valid
// UTF-8 and its numbers finite.
func (g *fuzzGen) manifest() *Manifest {
	m := &Manifest{
		Schema:    SchemaID,
		Tool:      g.str(),
		Trace:     g.str(),
		ConfigKey: g.str(),
		Workers:   int(g.natural()),
		WallMS:    g.unsigned(),
	}
	m.Items = list(g, func() ManifestItem {
		return ManifestItem{
			Name:        g.str(),
			Fingerprint: g.str(),
			Verdict:     g.pick("pass", "inspect", "violation", "error"),
			Cached:      g.byte()&1 == 1,
			ElapsedMS:   g.float(),
			Findings: list(g, func() Finding {
				return Finding{
					ID:       g.str(),
					Source:   g.pick("check", "lint", "timing", "error", "boundary"),
					Check:    g.str(),
					Subject:  g.str(),
					Severity: g.pick("inspect", "violation", "warn", "error"),
					Margin:   g.float(),
					Detail:   g.str(),
					Evidence: Evidence{
						Devices:   list(g, g.str),
						Nets:      list(g, g.str),
						Context:   g.str(),
						Measured:  g.float(),
						Threshold: g.float(),
						Unit:      g.str(),
					},
				}
			}),
			Subcell: g.str(),
			Parent:  g.str(),
			DiskHit: g.byte()&1 == 1,
		}
	})
	m.Stages = list(g, func() SpanInfo {
		return SpanInfo{Path: g.str(), Depth: int(g.natural()), DurMS: g.float()}
	})
	m.Counters = dict(g, g.int64)
	m.Gauges = dict(g, g.float)
	m.Histograms = dict(g, func() Histogram {
		counts := make([]int64, len(HistBoundsMS)+1)
		for i := range counts {
			counts[i] = g.natural()
		}
		return Histogram{Counts: counts, Sum: g.float(), Count: g.natural()}
	})
	m.Verdicts = VerdictTally{
		Pass:      int(g.natural()),
		Inspect:   int(g.natural()),
		Violation: int(g.natural()),
		Error:     int(g.natural()),
	}
	return m
}

// FuzzManifestJSON holds the manifest's two layouts and its reader to
// each other. For a manifest decoded from the input, CompactJSON is
// json.Compact of JSON plus one newline, or both fail (NaN, ±Inf). When
// its strings are valid UTF-8, ValidateManifest accepts JSON, and
// ParseManifest reads either layout back to a manifest whose JSON is the
// same bytes. The raw input is also fed to ValidateManifest and
// ParseManifest, which must not panic.
func FuzzManifestJSON(f *testing.F) {
	valid, err := sampleManifest().JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"schema":"fcv-run-manifest/v2","counters":{"big":9223372036854775807}}`))
	f.Add([]byte("\x05<a&b>\x05\xe2\x80\xa8\x01\x7f\x03\xff\xfe\xfd\x05\x01\x01\x00\xff"))
	f.Add(bytes.Repeat([]byte{0x01}, 256))
	f.Add(bytes.Repeat([]byte{0x02, 0x41}, 200))

	f.Fuzz(func(t *testing.T, data []byte) {
		ValidateManifest(data)
		ParseManifest(data)

		g := &fuzzGen{b: data}
		m := g.manifest()
		indented, ierr := m.JSON()
		compact, cerr := m.CompactJSON()
		if (ierr == nil) != (cerr == nil) {
			t.Fatalf("JSON error %v, CompactJSON error %v", ierr, cerr)
		}
		if ierr != nil {
			return
		}
		var want bytes.Buffer
		if err := json.Compact(&want, indented); err != nil {
			t.Fatalf("JSON wrote invalid JSON: %v\n%s", err, indented)
		}
		want.WriteByte('\n')
		if !bytes.Equal(compact, want.Bytes()) {
			t.Fatalf("CompactJSON differs from json.Compact of JSON:\n%s\nwant:\n%s", compact, want.Bytes())
		}
		if g.badUTF8 {
			return
		}
		if err := ValidateManifest(indented); err != nil {
			t.Fatalf("JSON of a well-shaped manifest rejected: %v\n%s", err, indented)
		}
		for _, doc := range [][]byte{indented, compact} {
			back, err := ParseManifest(doc)
			if err != nil {
				t.Fatalf("ParseManifest: %v\n%s", err, doc)
			}
			again, err := back.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, indented) {
				t.Fatalf("read back and rewritten:\n%s\nwant:\n%s", again, indented)
			}
		}
	})
}

// FuzzValidateMetricsText: the exposition checker never panics on the
// raw input, and it accepts what WritePrometheus renders from a
// collector whose counters, gauges and histograms, named from the
// input, hold finite values. Names are code constants in fcv, so two
// that mangle to one exposition name never meet; the generator skips
// such repeats, and keeps each kind under its own prefix so one kind's
// series cannot pose as another's.
func FuzzValidateMetricsText(f *testing.F) {
	c := New()
	c.Add("serve.requests", 7)
	c.SetGauge("serve.pool.active", 2)
	c.Observe("serve.request_ms", 0.2)
	c.Observe("serve.request_ms", 99999)
	var seed bytes.Buffer
	if err := c.Snapshot().WritePrometheus(&seed, "fcv"); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("# TYPE x histogram\nx_bucket{le=\"+Inf\"} 2\nx_count 3\n"))
	f.Add([]byte("\x03\x05a\nb\\c\x02\x01\x00\x04x.y\x01\x00\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ValidateMetricsText(data)

		g := &fuzzGen{b: data}
		c := New()
		seen := map[string]bool{}
		for n := g.byte() % 8; n > 0; n-- {
			kind := g.pick("c.", "g.", "h.")
			name := kind + g.str()
			pn := PromName("fcv", name)
			if seen[pn] {
				continue
			}
			seen[pn] = true
			switch kind {
			case "c.":
				c.Add(name, g.int64())
			case "g.":
				c.SetGauge(name, g.finite())
			default:
				v := g.finite()
				for k := g.byte() % 4; k > 0; k-- {
					c.Observe(name, v)
				}
			}
		}
		var out bytes.Buffer
		if err := c.Snapshot().WritePrometheus(&out, "fcv"); err != nil {
			t.Fatal(err)
		}
		if err := ValidateMetricsText(out.Bytes()); err != nil {
			t.Fatalf("WritePrometheus output rejected: %v\n%s", err, out.Bytes())
		}
	})
}
