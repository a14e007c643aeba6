package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

// diffKey identifies one finding occurrence across runs. The circuit's
// structural fingerprint (not the item's display name) anchors the item
// half and the stable finding ID the finding half, so a renamed deck or
// cell diffs as the same finding while a sizing change — which moves
// both hashes — diffs as fixed+new.
type diffKey struct {
	fingerprint string
	id          string
}

// findingRef is one finding with its owning item, for display.
type findingRef struct {
	item string
	f    obs.Finding
}

// manifestDiff is the computed comparison of two run manifests.
type manifestDiff struct {
	// New/Fixed are findings present only in the current/baseline run.
	New, Fixed []findingRef
	// Changed are findings present in both whose severity, margin or
	// detail moved.
	Changed []findingChange
	// Counters are the deterministic-counter deltas (changed keys only).
	Counters []counterDelta
	// Stages are per-stage duration deltas, aggregated by stage name.
	Stages []stageDelta
}

// findingChange pairs the two versions of one persistent finding.
type findingChange struct {
	item   string
	before obs.Finding
	after  obs.Finding
}

// counterDelta is one counter's movement between runs.
type counterDelta struct {
	name              string
	baseline, current int64
}

// stageDelta aggregates one stage's duration across all items.
type stageDelta struct {
	name              string
	baseline, current float64
}

// diffManifests computes the finding, counter and stage-duration deltas
// between two parsed manifests. Finding matching is by (structural
// fingerprint, stable finding ID); repeated occurrences (structural
// twins in the corpus) match by count.
func diffManifests(base, cur *obs.Manifest) *manifestDiff {
	d := &manifestDiff{}
	baseIdx := indexFindings(base)
	curIdx := indexFindings(cur)
	// New and changed: walk current in manifest order.
	for _, it := range cur.Items {
		for _, f := range it.Findings {
			key := diffKey{it.Fingerprint, f.ID}
			old, ok := takeOne(baseIdx, key)
			if !ok {
				d.New = append(d.New, findingRef{item: it.Name, f: f})
				continue
			}
			if old.Severity != f.Severity || old.Margin != f.Margin || old.Detail != f.Detail {
				d.Changed = append(d.Changed, findingChange{item: it.Name, before: old, after: f})
			}
		}
	}
	// Fixed: whatever the walk above did not consume from the baseline.
	for _, it := range base.Items {
		for _, f := range it.Findings {
			key := diffKey{it.Fingerprint, f.ID}
			if n := curIdx.count[key]; n > 0 {
				curIdx.count[key] = n - 1
				continue
			}
			d.Fixed = append(d.Fixed, findingRef{item: it.Name, f: f})
		}
	}
	d.Counters = diffCounters(base.Counters, cur.Counters)
	d.Stages = diffStages(base, cur)
	return d
}

// findingIndex counts finding occurrences per key and keeps one
// representative per key for change comparison.
type findingIndex struct {
	count map[diffKey]int
	rep   map[diffKey]obs.Finding
}

func indexFindings(m *obs.Manifest) *findingIndex {
	idx := &findingIndex{count: map[diffKey]int{}, rep: map[diffKey]obs.Finding{}}
	for _, it := range m.Items {
		for _, f := range it.Findings {
			key := diffKey{it.Fingerprint, f.ID}
			idx.count[key]++
			if _, ok := idx.rep[key]; !ok {
				idx.rep[key] = f
			}
		}
	}
	return idx
}

// takeOne consumes one occurrence of key from the index, returning its
// representative finding.
func takeOne(idx *findingIndex, key diffKey) (obs.Finding, bool) {
	if idx.count[key] == 0 {
		return obs.Finding{}, false
	}
	idx.count[key]--
	return idx.rep[key], true
}

// diffCounters returns deltas for every counter whose value moved (or
// that exists on only one side), sorted by name.
func diffCounters(base, cur map[string]int64) []counterDelta {
	names := map[string]bool{}
	for k := range base {
		names[k] = true
	}
	for k := range cur {
		names[k] = true
	}
	var out []counterDelta
	for k := range names {
		if base[k] != cur[k] {
			out = append(out, counterDelta{name: k, baseline: base[k], current: cur[k]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// diffStages aggregates span durations by stage name — the last path
// segment for sub-spans (recognize/lint/checks/timing across all
// items), the full path for roots — and returns the per-stage totals
// side by side, sorted by name.
func diffStages(base, cur *obs.Manifest) []stageDelta {
	agg := func(m *obs.Manifest) map[string]float64 {
		out := map[string]float64{}
		for _, s := range m.Stages {
			name := s.Path
			if s.Depth > 0 {
				name = name[strings.LastIndexByte(name, '/')+1:]
			}
			// Depth-1 spans are per-item; aggregating them by item name
			// would make the diff grow with the corpus, so fold them into
			// one "items" row and keep stage-level resolution at depth ≥ 2.
			if s.Depth == 1 {
				name = "(items)"
			}
			out[name] += s.DurMS
		}
		return out
	}
	b, c := agg(base), agg(cur)
	names := map[string]bool{}
	for k := range b {
		names[k] = true
	}
	for k := range c {
		names[k] = true
	}
	var out []stageDelta
	for k := range names {
		out = append(out, stageDelta{name: k, baseline: b[k], current: c[k]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// render writes the human-readable diff.
func (d *manifestDiff) render(w io.Writer) {
	fmt.Fprintf(w, "manifest diff: %d new, %d fixed, %d changed finding(s)\n",
		len(d.New), len(d.Fixed), len(d.Changed))
	for _, r := range d.New {
		fmt.Fprintf(w, "  NEW    %-9s %s  [%s] %s: %s\n", r.f.Severity, r.f.ID, r.item, r.f.Subject, r.f.Detail)
	}
	for _, r := range d.Fixed {
		fmt.Fprintf(w, "  FIXED  %-9s %s  [%s] %s: %s\n", r.f.Severity, r.f.ID, r.item, r.f.Subject, r.f.Detail)
	}
	for _, ch := range d.Changed {
		fmt.Fprintf(w, "  CHANGED %s  [%s] %s: %s (%s, margin %+.3f) -> %s (%s, margin %+.3f)\n",
			ch.after.ID, ch.item, ch.after.Subject,
			ch.before.Severity, ch.before.Detail, ch.before.Margin,
			ch.after.Severity, ch.after.Detail, ch.after.Margin)
	}
	if len(d.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, c := range d.Counters {
			fmt.Fprintf(w, "  %-42s %10d -> %10d  (%+d)\n", c.name, c.baseline, c.current, c.current-c.baseline)
		}
	}
	if len(d.Stages) > 0 {
		fmt.Fprintln(w, "stage durations (aggregated, wall-clock — informational):")
		for _, s := range d.Stages {
			delta := "  n/a"
			if s.baseline > 0 {
				delta = fmt.Sprintf("%+5.1f%%", (s.current-s.baseline)/s.baseline*100)
			}
			fmt.Fprintf(w, "  %-24s %10.2fms -> %10.2fms  %s\n", s.name, s.baseline, s.current, delta)
		}
	}
}

// runDiff is the diff subcommand: the run-to-run regression gate.
//
//	fcv diff <baseline.json> <current.json>
//
// Both arguments are run manifests. Exit codes:
// 0 no new findings, 1 new findings appeared, 2 operational failure
// (unreadable or invalid manifest). Fixed and changed findings are
// reported but never fail the gate; neither do counter or duration
// movements.
func runDiff(args []string, out *os.File) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("diff needs exactly two manifest files: <baseline.json> <current.json>")
	}
	base, err := obs.ReadManifestFile(rest[0])
	if err != nil {
		return err
	}
	cur, err := obs.ReadManifestFile(rest[1])
	if err != nil {
		return err
	}
	if base.ConfigKey != cur.ConfigKey {
		fmt.Fprintf(out, "diff: WARNING: config keys differ — runs are not directly comparable\n")
	}
	d := diffManifests(base, cur)
	d.render(out)
	if len(d.New) > 0 {
		return fmt.Errorf("%w: %d finding(s) not present in baseline", errDiffNewFindings, len(d.New))
	}
	return nil
}
