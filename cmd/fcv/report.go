package main

import (
	"flag"
	"fmt"
	"html"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

// cellSpans is the extracted stage waterfall of one corpus item: the
// item's own span plus its stage sub-spans, in trace order.
type cellSpans struct {
	name    string
	totalMS float64
	stages  []obs.SpanInfo
}

// extractWaterfall folds the flattened span tree back into per-cell
// stage groups: depth-1 spans under the "fleet" root are items, deeper
// spans belong to the most recent item.
func extractWaterfall(m *obs.Manifest) []cellSpans {
	var out []cellSpans
	for _, s := range m.Stages {
		switch {
		case s.Depth == 1:
			name := s.Path[strings.LastIndexByte(s.Path, '/')+1:]
			out = append(out, cellSpans{name: name, totalMS: s.DurMS})
		case s.Depth >= 2 && len(out) > 0:
			out[len(out)-1].stages = append(out[len(out)-1].stages, s)
		}
	}
	return out
}

// cacheHitRatio returns hits/(hits+misses) from the run counters, and
// whether a cache was in play at all.
func cacheHitRatio(m *obs.Manifest) (float64, bool) {
	hits := m.Counters["fleet.cache.hits"]
	misses := m.Counters["fleet.cache.misses"]
	if hits+misses == 0 {
		return 0, false
	}
	return float64(hits) / float64(hits+misses), true
}

// diskHitRatio is cacheHitRatio for the persistent layer: disk hits
// over disk lookups, present only when verify ran with a -cache-dir.
func diskHitRatio(m *obs.Manifest) (float64, bool) {
	hits := m.Counters["fleet.diskcache.hit"]
	misses := m.Counters["fleet.diskcache.miss"]
	if hits+misses == 0 {
		return 0, false
	}
	return float64(hits) / float64(hits+misses), true
}

// slowestItems returns up to n items by descending elapsed time.
func slowestItems(m *obs.Manifest, n int) []obs.ManifestItem {
	items := append([]obs.ManifestItem(nil), m.Items...)
	sort.SliceStable(items, func(i, j int) bool { return items[i].ElapsedMS > items[j].ElapsedMS })
	if len(items) > n {
		items = items[:n]
	}
	return items
}

// findingsByCheck groups every item's findings under "source/check",
// keys sorted, findings in manifest order with their item attached.
func findingsByCheck(m *obs.Manifest) ([]string, map[string][]findingRef) {
	groups := map[string][]findingRef{}
	for _, it := range m.Items {
		for _, f := range it.Findings {
			key := f.Source + "/" + f.Check
			groups[key] = append(groups[key], findingRef{item: it.Name, f: f})
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, groups
}

// bar renders a proportional text bar of up to width characters.
func bar(v, max float64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n > width {
		n = width
	}
	if n < 1 && v > 0 {
		n = 1
	}
	return strings.Repeat("#", n)
}

// evidenceLine renders a finding's evidence block on one line.
func evidenceLine(f obs.Finding) string {
	var parts []string
	if len(f.Evidence.Devices) > 0 {
		parts = append(parts, "devices "+strings.Join(f.Evidence.Devices, ","))
	}
	if len(f.Evidence.Nets) > 0 {
		parts = append(parts, "nets "+strings.Join(f.Evidence.Nets, ","))
	}
	if f.Evidence.Context != "" {
		parts = append(parts, f.Evidence.Context)
	}
	if f.Evidence.Unit != "" {
		parts = append(parts, fmt.Sprintf("measured %.3g vs %.3g %s",
			f.Evidence.Measured, f.Evidence.Threshold, f.Evidence.Unit))
	}
	return strings.Join(parts, "; ")
}

// renderTextReport writes the run report as plain text.
func renderTextReport(m *obs.Manifest, topN int, w io.Writer) {
	fmt.Fprintf(w, "run report: %s  (schema %s)\n", m.Tool, m.Schema)
	fmt.Fprintf(w, "  workers=%d  wall=%.2fms  items=%d\n", m.Workers, m.WallMS, len(m.Items))
	fmt.Fprintf(w, "  verdicts: pass=%d inspect=%d violation=%d error=%d\n",
		m.Verdicts.Pass, m.Verdicts.Inspect, m.Verdicts.Violation, m.Verdicts.Error)
	if ratio, ok := cacheHitRatio(m); ok {
		fmt.Fprintf(w, "  cache: %.0f%% hit ratio (%d hits, %d misses)\n",
			ratio*100, m.Counters["fleet.cache.hits"], m.Counters["fleet.cache.misses"])
	}
	if ratio, ok := diskHitRatio(m); ok {
		fmt.Fprintf(w, "  disk cache: %.0f%% hit ratio (%d hits, %d misses, %d corrupt)\n",
			ratio*100, m.Counters["fleet.diskcache.hit"], m.Counters["fleet.diskcache.miss"],
			m.Counters["fleet.diskcache.corrupt"])
	}

	slow := slowestItems(m, topN)
	if len(slow) > 0 {
		fmt.Fprintf(w, "\nslowest %d item(s):\n", len(slow))
		max := slow[0].ElapsedMS
		for _, it := range slow {
			fmt.Fprintf(w, "  %-32s %10.2fms  %s\n", it.Name, it.ElapsedMS, bar(it.ElapsedMS, max, 30))
		}
	}

	cells := extractWaterfall(m)
	if len(cells) > 0 {
		fmt.Fprintln(w, "\nper-cell stage waterfall:")
		var max float64
		for _, c := range cells {
			if c.totalMS > max {
				max = c.totalMS
			}
		}
		for _, c := range cells {
			fmt.Fprintf(w, "  %-32s %10.2fms %s\n", c.name, c.totalMS, bar(c.totalMS, max, 30))
			for _, s := range c.stages {
				stage := s.Path[strings.LastIndexByte(s.Path, '/')+1:]
				fmt.Fprintf(w, "    %-30s %10.2fms %s\n", stage, s.DurMS, bar(s.DurMS, max, 30))
			}
		}
	}

	if len(m.Histograms) > 0 {
		fmt.Fprintln(w, "\nduration distributions (p50 / p90 / p99, ms):")
		names := make([]string, 0, len(m.Histograms))
		for k := range m.Histograms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, name := range names {
			h := m.Histograms[name]
			fmt.Fprintf(w, "  %-32s n=%-5d %8.2f / %8.2f / %8.2f\n",
				name, h.Count, h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99))
		}
	}

	keys, groups := findingsByCheck(m)
	if len(keys) == 0 {
		fmt.Fprintln(w, "\nno findings — corpus clean")
		return
	}
	fmt.Fprintln(w, "\nfindings by check:")
	for _, k := range keys {
		fmt.Fprintf(w, "  %s (%d):\n", k, len(groups[k]))
		for _, r := range groups[k] {
			fmt.Fprintf(w, "    %-9s %s  [%s] %s: %s\n", r.f.Severity, r.f.ID, r.item, r.f.Subject, r.f.Detail)
			if ev := evidenceLine(r.f); ev != "" {
				fmt.Fprintf(w, "              %s\n", ev)
			}
		}
	}
}

// renderHTMLReport writes the run report as one self-contained static
// HTML page (inline CSS, no external assets, no scripts).
func renderHTMLReport(m *obs.Manifest, topN int, w io.Writer) {
	esc := html.EscapeString
	fmt.Fprint(w, `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>fcv run report</title><style>
body{font-family:ui-monospace,Menlo,monospace;margin:2em;color:#222}
h1{font-size:1.3em}h2{font-size:1.05em;margin-top:1.6em;border-bottom:1px solid #ccc}
table{border-collapse:collapse}td,th{padding:2px 10px;text-align:left;font-size:.9em}
th{border-bottom:1px solid #888}
.bar{display:inline-block;height:.75em;background:#4a90d9}
.stage .bar{background:#9cc3e6}
.sev-violation{color:#b00}.sev-error{color:#b00;font-weight:bold}
.sev-inspect{color:#b60}.sev-warn{color:#b60}
.id{color:#666;font-size:.85em}
.ev{color:#555;font-size:.85em}
</style></head><body>
`)
	fmt.Fprintf(w, "<h1>%s</h1>\n", esc(m.Tool))
	fmt.Fprintf(w, "<p>schema %s · workers %d · wall %.2f ms · %d items</p>\n",
		esc(m.Schema), m.Workers, m.WallMS, len(m.Items))
	fmt.Fprintf(w, "<p>verdicts: pass=%d inspect=%d violation=%d error=%d",
		m.Verdicts.Pass, m.Verdicts.Inspect, m.Verdicts.Violation, m.Verdicts.Error)
	if ratio, ok := cacheHitRatio(m); ok {
		fmt.Fprintf(w, " · cache hit ratio %.0f%%", ratio*100)
	}
	if ratio, ok := diskHitRatio(m); ok {
		fmt.Fprintf(w, " · disk hit ratio %.0f%%", ratio*100)
	}
	fmt.Fprint(w, "</p>\n")

	slow := slowestItems(m, topN)
	if len(slow) > 0 {
		fmt.Fprintf(w, "<h2>slowest %d item(s)</h2>\n<table><tr><th>item</th><th>elapsed</th><th></th></tr>\n", len(slow))
		max := slow[0].ElapsedMS
		for _, it := range slow {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%.2f ms</td><td><span class=\"bar\" style=\"width:%.0fpx\"></span></td></tr>\n",
				esc(it.Name), it.ElapsedMS, barPx(it.ElapsedMS, max))
		}
		fmt.Fprint(w, "</table>\n")
	}

	cells := extractWaterfall(m)
	if len(cells) > 0 {
		fmt.Fprint(w, "<h2>per-cell stage waterfall</h2>\n<table><tr><th>cell / stage</th><th>duration</th><th></th></tr>\n")
		var max float64
		for _, c := range cells {
			if c.totalMS > max {
				max = c.totalMS
			}
		}
		for _, c := range cells {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%.2f ms</td><td><span class=\"bar\" style=\"width:%.0fpx\"></span></td></tr>\n",
				esc(c.name), c.totalMS, barPx(c.totalMS, max))
			for _, s := range c.stages {
				stage := s.Path[strings.LastIndexByte(s.Path, '/')+1:]
				fmt.Fprintf(w, "<tr class=\"stage\"><td>&nbsp;&nbsp;%s</td><td>%.2f ms</td><td><span class=\"bar\" style=\"width:%.0fpx\"></span></td></tr>\n",
					esc(stage), s.DurMS, barPx(s.DurMS, max))
			}
		}
		fmt.Fprint(w, "</table>\n")
	}

	if len(m.Histograms) > 0 {
		fmt.Fprint(w, "<h2>duration distributions</h2>\n<table><tr><th>histogram</th><th>n</th><th>p50</th><th>p90</th><th>p99</th></tr>\n")
		names := make([]string, 0, len(m.Histograms))
		for k := range m.Histograms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, name := range names {
			h := m.Histograms[name]
			fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%.2f ms</td><td>%.2f ms</td><td>%.2f ms</td></tr>\n",
				esc(name), h.Count, h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99))
		}
		fmt.Fprint(w, "</table>\n")
	}

	keys, groups := findingsByCheck(m)
	if len(keys) == 0 {
		fmt.Fprint(w, "<h2>findings</h2>\n<p>no findings — corpus clean</p>\n")
	} else {
		fmt.Fprint(w, "<h2>findings by check</h2>\n")
		for _, k := range keys {
			fmt.Fprintf(w, "<h3>%s (%d)</h3>\n<table><tr><th>severity</th><th>item</th><th>subject</th><th>detail</th><th>id</th></tr>\n",
				esc(k), len(groups[k]))
			for _, r := range groups[k] {
				fmt.Fprintf(w, "<tr><td class=\"sev-%s\">%s</td><td>%s</td><td>%s</td><td>%s", esc(r.f.Severity), esc(r.f.Severity),
					esc(r.item), esc(r.f.Subject), esc(r.f.Detail))
				if ev := evidenceLine(r.f); ev != "" {
					fmt.Fprintf(w, "<br><span class=\"ev\">%s</span>", esc(ev))
				}
				fmt.Fprintf(w, "</td><td class=\"id\">%s</td></tr>\n", esc(r.f.ID))
			}
			fmt.Fprint(w, "</table>\n")
		}
	}
	fmt.Fprint(w, "</body></html>\n")
}

// barPx maps a duration to a bar width in pixels (max 300).
func barPx(v, max float64) float64 {
	if max <= 0 {
		return 0
	}
	px := v / max * 300
	if px < 1 && v > 0 {
		px = 1
	}
	return px
}

// runReport is the report subcommand: render a run manifest as a
// human-readable report.
//
//	fcv report [-html] [-top N] [-o out] <manifest.json>
//
// Renders per-cell stage waterfalls, the slowest cells, the cache hit
// ratio, duration-histogram percentiles and the findings grouped by
// check with their evidence — as text (default) or one self-contained
// static HTML page (-html). Exit codes: 0 rendered, 2 operational
// failure; the report never gates (use `fcv diff` for gating).
func runReport(args []string, out *os.File) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	asHTML := fs.Bool("html", false, "render a self-contained static HTML page instead of text")
	topN := fs.Int("top", 10, "how many slowest items to list")
	outPath := fs.String("o", "", "write the report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 1 {
		return fmt.Errorf("report needs exactly one manifest file")
	}
	m, err := obs.ReadManifestFile(rest[0])
	if err != nil {
		return err
	}
	var w io.Writer = out
	var sb *strings.Builder
	if *outPath != "" {
		sb = &strings.Builder{}
		w = sb
	}
	if *asHTML {
		renderHTMLReport(m, *topN, w)
	} else {
		renderTextReport(m, *topN, w)
	}
	if sb != nil {
		return obs.WriteFileAtomic(*outPath, []byte(sb.String()))
	}
	return nil
}
