package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition, hand-rolled (the repo takes no
// dependencies): a MetricsSnapshot renders as the standard scrape
// format — `# HELP` / `# TYPE` comment pair per family, one sample per
// line, histograms as cumulative `_bucket{le="..."}` series ending in
// `+Inf` plus `_sum`/`_count`. Families emit sorted by exposition name,
// so the output's *shape* (the full line sequence with sample values
// masked) is deterministic for a given metric-name set — the property
// the serve daemon's /metrics golden test pins across worker counts.
//
// Naming: an obs metric name like "fleet.cache.hits" mangles to
// "<ns>_fleet_cache_hits" (every character outside [a-zA-Z0-9_]
// becomes '_'); counters additionally get the conventional "_total"
// suffix. Durations in this codebase are milliseconds and the metric
// names say so (`..._ms`); no unit conversion happens here.

// PromName mangles an obs metric name into a valid Prometheus metric
// name under the given namespace prefix: "serve.request_ms" with
// namespace "fcv" becomes "fcv_serve_request_ms". A leading digit after
// an empty namespace is prefixed with '_' to stay within the grammar.
func PromName(namespace, name string) string {
	var sb strings.Builder
	if namespace != "" {
		sb.WriteString(namespace)
		sb.WriteByte('_')
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	out := sb.String()
	if out == "" {
		return "_"
	}
	if out[0] >= '0' && out[0] <= '9' {
		return "_" + out
	}
	return out
}

// promFloat formats a sample value: shortest round-trip representation,
// with the spec's spellings for the infinities. NaN is deliberately
// rendered as "NaN" so the validator (which rejects it) can catch a
// NaN-producing bug instead of masking it.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promHelp escapes a HELP docstring as the text format asks: a
// backslash as \\ and a line feed as \n, so no metric name can end the
// comment line early.
var promHelp = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// promFamily is one metric family ready to print: the exposition name,
// its TYPE, and the fully formatted sample lines.
type promFamily struct {
	name    string
	typ     string
	help    string
	samples []string
}

// WritePrometheus renders the snapshot in Prometheus text format.
// Counters become `<ns>_<name>_total` counter families, gauges become
// gauge families, histograms become histogram families with cumulative
// buckets at HistBoundsMS (upper bounds in milliseconds) plus the
// implicit +Inf bucket. Families print sorted by exposition name.
func (s MetricsSnapshot) WritePrometheus(w io.Writer, namespace string) error {
	fams := make([]promFamily, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for name, v := range s.Counters {
		pn := PromName(namespace, name) + "_total"
		fams = append(fams, promFamily{
			name:    pn,
			typ:     "counter",
			help:    "obs counter " + name,
			samples: []string{fmt.Sprintf("%s %d", pn, v)},
		})
	}
	for name, v := range s.Gauges {
		pn := PromName(namespace, name)
		fams = append(fams, promFamily{
			name:    pn,
			typ:     "gauge",
			help:    "obs gauge " + name,
			samples: []string{fmt.Sprintf("%s %s", pn, promFloat(v))},
		})
	}
	for name, h := range s.Histograms {
		pn := PromName(namespace, name)
		samples := make([]string, 0, len(h.Counts)+2)
		var cum int64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(HistBoundsMS) {
				le = promFloat(HistBoundsMS[i])
			}
			samples = append(samples, fmt.Sprintf("%s_bucket{le=%q} %d", pn, le, cum))
		}
		samples = append(samples,
			fmt.Sprintf("%s_sum %s", pn, promFloat(h.Sum)),
			fmt.Sprintf("%s_count %d", pn, h.Count))
		fams = append(fams, promFamily{
			name:    pn,
			typ:     "histogram",
			help:    "obs histogram " + name + " (ms)",
			samples: samples,
		})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, promHelp.Replace(f.help), f.name, f.typ); err != nil {
			return err
		}
		for _, line := range f.samples {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// ValidateMetricsText is a minimal Prometheus text-format (version
// 0.0.4) line checker, used by the exposition tests and the CI smoke:
// every line must be a well-formed HELP/TYPE comment or a sample whose
// family was TYPE-declared earlier; metric names must match the
// grammar; values must parse as finite floats (NaN and a bare parse
// failure both reject — a NaN quantile or count is exactly the bug
// class this exists to catch); histogram `_bucket` series must be
// cumulative (non-decreasing) and end with le="+Inf" matching _count.
// It is not a full openmetrics parser — no exemplars, no timestamps,
// no escaped label values beyond \" — but everything WritePrometheus
// emits round-trips through it.
func ValidateMetricsText(data []byte) error {
	lines := strings.Split(string(data), "\n")
	types := map[string]string{}       // family -> TYPE
	bucketPrev := map[string]int64{}   // family -> last bucket count
	bucketInf := map[string]int64{}    // family -> +Inf bucket count
	bucketInfSeen := map[string]bool{} // family -> saw le="+Inf"
	histCount := map[string]int64{}    // family -> _count value
	histCountSeen := map[string]bool{} // family -> saw _count
	for li, line := range lines {
		if line == "" {
			continue
		}
		lineNo := li + 1
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("metrics line %d: malformed comment %q", lineNo, line)
			}
			if !validPromName(fields[2]) {
				return fmt.Errorf("metrics line %d: bad metric name %q", lineNo, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("metrics line %d: TYPE without a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("metrics line %d: unknown type %q", lineNo, fields[3])
				}
				if _, dup := types[fields[2]]; dup {
					return fmt.Errorf("metrics line %d: duplicate TYPE for %q", lineNo, fields[2])
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		// Sample line: name[{labels}] value
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if !validPromName(name) {
			return fmt.Errorf("metrics line %d: bad sample name %q", lineNo, name)
		}
		var le string
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				return fmt.Errorf("metrics line %d: unterminated label set", lineNo)
			}
			var err error
			le, err = parsePromLabels(rest[1:end])
			if err != nil {
				return fmt.Errorf("metrics line %d: %v", lineNo, err)
			}
			rest = rest[end+1:]
		}
		valStr := strings.TrimSpace(rest)
		if valStr == "" {
			return fmt.Errorf("metrics line %d: sample %q has no value", lineNo, name)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("metrics line %d: %s: bad value %q", lineNo, name, valStr)
		}
		if math.IsNaN(val) {
			return fmt.Errorf("metrics line %d: %s: NaN sample value", lineNo, name)
		}
		family, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, sfx)
			if base != name {
				if t, ok := types[base]; ok && t == "histogram" {
					family, suffix = base, sfx
				}
				break
			}
		}
		typ, declared := types[family]
		if !declared {
			return fmt.Errorf("metrics line %d: sample %q has no preceding TYPE", lineNo, name)
		}
		if typ == "histogram" {
			switch suffix {
			case "_bucket":
				if le == "" {
					return fmt.Errorf("metrics line %d: %s bucket without le label", lineNo, family)
				}
				c := int64(val)
				if c < bucketPrev[family] {
					return fmt.Errorf("metrics line %d: %s buckets not cumulative (%d after %d)", lineNo, family, c, bucketPrev[family])
				}
				bucketPrev[family] = c
				if le == "+Inf" {
					bucketInf[family] = c
					bucketInfSeen[family] = true
				}
			case "_count":
				histCount[family] = int64(val)
				histCountSeen[family] = true
			case "_sum":
				// any finite float is fine
			default:
				return fmt.Errorf("metrics line %d: bare sample %q for histogram family", lineNo, name)
			}
		}
	}
	for family, t := range types {
		if t != "histogram" {
			continue
		}
		if !bucketInfSeen[family] {
			return fmt.Errorf("metrics: histogram %s has no le=\"+Inf\" bucket", family)
		}
		if histCountSeen[family] && histCount[family] != bucketInf[family] {
			return fmt.Errorf("metrics: histogram %s: +Inf bucket %d != count %d", family, bucketInf[family], histCount[family])
		}
	}
	return nil
}

// MaskMetricsValues replaces every sample value in a Prometheus text
// document with "V", leaving comment lines and the name{labels} part of
// sample lines intact. The result is the exposition's *shape* — the
// stable half of the determinism contract — which the serve /metrics
// golden test pins byte-for-byte across worker counts while the counts
// and durations themselves stay free to vary.
func MaskMetricsValues(text string) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndex(line, "} ")
		if cut >= 0 {
			lines[i] = line[:cut+1] + " V"
			continue
		}
		if sp := strings.IndexByte(line, ' '); sp >= 0 {
			lines[i] = line[:sp] + " V"
		}
	}
	return strings.Join(lines, "\n")
}

// validPromName checks the metric-name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parsePromLabels checks a label body (`k="v",k2="v2"`) and returns the
// value of the `le` label if present.
func parsePromLabels(body string) (le string, err error) {
	for _, pair := range strings.Split(body, ",") {
		if pair == "" {
			continue
		}
		k, v, ok := strings.Cut(pair, "=")
		if !ok || !validPromName(k) {
			return "", fmt.Errorf("bad label pair %q", pair)
		}
		unq, err := strconv.Unquote(v)
		if err != nil {
			return "", fmt.Errorf("label %s: unquoted value %q", k, v)
		}
		if k == "le" {
			le = unq
		}
	}
	return le, nil
}
