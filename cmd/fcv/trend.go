package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// trendMetrics names the BenchMetrics JSON keys the trend gate watches.
// These are higher-is-better throughputs; only drops beyond the
// tolerance fail the gate (improvements always pass — they become the
// next baseline). Metrics are looked up by key in the raw documents
// rather than through struct fields, so a baseline written by an older
// (or newer) fcv whose metric set drifted is skipped with a warning
// instead of read as a zero and misjudged.
var trendMetrics = []string{
	"rtl_cycles_per_sec",
	"vectors_per_sec",
	"cycles_per_day",
	"lane_parallel_speedup",
	"lane_block_speedup",
	"hier_cold_designs_per_sec",
	"hier_edit_one_leaf_reverify_per_sec",
	"hier_incremental_speedup",
}

// runTrend is the bench-trend gate: compare the current BENCH_fleet
// metrics against a baseline and fail (exit 1) when any throughput
// metric regressed past the tolerance.
//
//	fcv trend [-baseline BENCH_baseline.json] [-tolerance 30] <BENCH_fleet.json>
//
// A missing baseline file is reported but passes (first run of a new
// pipeline has nothing to compare against); a present-but-unreadable
// baseline is an operational failure (exit 2).
func runTrend(args []string, out *os.File) error {
	fs := flag.NewFlagSet("trend", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "baseline metrics JSON")
	tolPct := fs.Float64("tolerance", 30, "allowed throughput regression in percent")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 1 {
		return fmt.Errorf("trend needs exactly one current metrics file")
	}
	cur, err := readRawMetrics(rest[0])
	if err != nil {
		return err
	}
	if _, err := os.Stat(*baselinePath); os.IsNotExist(err) {
		fmt.Fprintf(out, "trend: no baseline at %s — nothing to compare, passing\n", *baselinePath)
		return nil
	}
	base, err := readRawMetrics(*baselinePath)
	if err != nil {
		return err
	}
	tol := *tolPct / 100
	var regressions int
	fmt.Fprintf(out, "trend: %s vs baseline %s (tolerance ±%.0f%%)\n", rest[0], *baselinePath, *tolPct)
	for _, name := range trendMetrics {
		b, bok := base[name]
		c, cok := cur[name]
		switch {
		case !bok && !cok:
			fmt.Fprintf(out, "  %-26s absent from both files, skipped (metric-key drift)\n", name)
			continue
		case !bok:
			fmt.Fprintf(out, "  %-26s missing from baseline, skipped (metric-key drift)\n", name)
			continue
		case !cok:
			fmt.Fprintf(out, "  %-26s missing from current metrics, skipped (metric-key drift)\n", name)
			continue
		}
		if b <= 0 {
			fmt.Fprintf(out, "  %-26s baseline empty, skipped\n", name)
			continue
		}
		delta := (c - b) / b * 100
		status := "ok"
		if c < b*(1-tol) {
			status = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(out, "  %-26s %12.1f -> %12.1f  %+7.1f%%  %s\n", name, b, c, delta, status)
	}
	if regressions > 0 {
		return fmt.Errorf("%w: %d metric(s) regressed more than %.0f%% past baseline", errTrendRegression, regressions, *tolPct)
	}
	return nil
}

// readRawMetrics loads a BENCH_fleet.json-shaped file as a raw
// key→number map, keeping only numeric fields. The raw form lets the
// gate distinguish "metric absent" (key drift between tool versions —
// skip with a warning) from "metric measured as zero".
func readRawMetrics(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			m[k] = f
		}
	}
	return m, nil
}
