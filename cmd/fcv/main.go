// Command fcv is the full-custom verification driver: the command-line
// face of the CBV methodology. It reads a SPICE-subset transistor deck,
// flattens it, and runs the requested tool:
//
//	fcv verify  <deck.sp>... [top] # recognition + §4.2 battery + timing (CBV)
//	fcv serve                     # long-lived HTTP verification daemon (POST /verify)
//	fcv top                       # live terminal dashboard over a running daemon
//	fcv lint    <deck.sp> [top]   # static netlist analysis (FCV001…) over every cell
//	fcv recog   <deck.sp> [top]   # recognition only
//	fcv checks  <deck.sp> [top]   # §4.2 electrical battery
//	fcv timing  <deck.sp> [top]   # critical paths and races
//	fcv layout  <deck.sp> [top]   # macrocell place/estimate
//	fcv cbc     <deck.sp> [top]   # the correct-by-construction gatekeeper
//	fcv sim     <f.fcl> N [in=v]  # run an FCL RTL model for N cycles
//	fcv power                     # Table 1 power walk + generations table
//	fcv bench                     # measure throughput metrics -> BENCH_fleet.json
//	fcv manifest-check <m.json>   # validate a run manifest against its schema
//	fcv trend -baseline b.json m.json  # fail on throughput regression past tolerance
//	fcv diff <base.json> <cur.json>    # new/fixed/changed findings between two manifests
//	fcv report [-html] <m.json>        # render a manifest as a human-readable run report
//	fcv cache stats|gc <dir>           # inspect or shrink a persistent result cache
//
// verify is the fleet driver: it accepts several decks (and, with
// -cells, every cell of each deck as its own corpus member), verifies
// them on -j parallel workers with a structural-fingerprint result
// cache, and exits 0 when everything passes or needs inspection only,
// 1 when any design is in violation or errors, 2 on operational
// failure:
//
//	fcv verify [-j N] [-cells] [-hier] [-hier-inline N] [-cache-dir d] [-lint] [-quiet] [-manifest m.json] [-events e.jsonl] [-trace] [-pprof-labels] <deck.sp>... [top]
//
// Every netlist subcommand, and POST /verify on the daemon, picks a
// deck's root by one rule (fleet.HierFromDeck): a named top wins — a
// cell, or "top" for a live top-level element soup — otherwise a live
// soup is the root, otherwise the last cell in name order.
//
// -hier switches a single-deck run to hierarchical incremental
// verification (fleet.VerifyHier): each subcell above the -hier-inline
// device cutoff is verified in isolation, keyed on its fingerprint DAG
// hash, and parent verdicts are composed from child results plus
// boundary checks — so with -cache-dir, re-verifying after a one-leaf
// edit recomputes only the edited cell and its path to the root.
//
// -cache-dir (default $FCV_CACHE_DIR) layers a persistent result cache
// under the in-memory one: results keyed by (structural fingerprint,
// config key, cache format version) survive across runs, so re-verifying
// an unchanged corpus replays from disk instead of recomputing;
// -manifest writes the machine-readable run manifest (schema
// fcv-run-manifest/v2: config key, fingerprints, per-item provenanced
// findings with stable IDs, per-stage durations, counters, duration
// histograms, verdict tallies); -events streams live JSONL events
// (item/stage/cache/finding) whose sequence is deterministic at any -j;
// -lint runs the static gate before the battery so lint findings reach
// the manifest; -trace prints the span tree and counters;
// -pprof-labels tags fleet worker goroutines with fcv_cell/fcv_stage
// labels so CPU profiles attribute samples to cells and stages.
//
// diff compares two run manifests by stable finding ID and exits 0 when
// no new findings appeared, 1 when any did (fixed findings never fail
// the gate), 2 on operational failure — the run-to-run regression gate.
//
// Flags:
//
//	-process cmos075|cmos050|cmos035lp   (default cmos075)
//	-period  <ps>                        clock period (default: process nominal)
//
// lint takes its own flags after the subcommand:
//
//	fcv lint [-format text|json|sarif] [-waivers file] [-fanout N] <deck.sp> [top]
//
// and exits 0 on a clean (or fully waived) deck, 1 when unwaived
// error-severity findings remain — so CI can gate on it directly.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/checks"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/layout"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/process"
	"repro/internal/recognize"
	"repro/internal/rtl"
	"repro/internal/timing"
)

// errLintFindings marks the "deck has unwaived error findings" outcome,
// so main can give it the conventional lint exit code (1) while other
// failures exit 2. errVerifyFindings is the same contract for verify
// (any corpus member in violation or erroring), errManifestInvalid for
// manifest-check, and errTrendRegression for trend — all exit 1 so CI
// can gate on them directly.
var (
	errLintFindings    = errors.New("lint findings")
	errVerifyFindings  = errors.New("verification findings")
	errManifestInvalid = errors.New("manifest invalid")
	errTrendRegression = errors.New("throughput regression")
	errDiffNewFindings = errors.New("new findings")
)

// isFindings classifies the exit-1 family: the tool ran fine and the
// inputs were judged bad, as opposed to operational failure (exit 2).
func isFindings(err error) bool {
	return errors.Is(err, errLintFindings) || errors.Is(err, errVerifyFindings) ||
		errors.Is(err, errManifestInvalid) || errors.Is(err, errTrendRegression) ||
		errors.Is(err, errDiffNewFindings)
}

var (
	procName = flag.String("process", "cmos075", "process model: cmos075, cmos050, cmos035lp")
	periodPS = flag.Float64("period", 0, "clock period in ps (0 = process nominal)")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fcv [flags] <verify|serve|top|lint|recog|checks|timing|layout|cbc|sim|power|bench|manifest-check|trend|diff|report|cache> [args]")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(args[0], args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "fcv: %v\n", err)
		if isFindings(err) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// run dispatches a subcommand.
func run(cmd string, args []string) error {
	proc, err := process.ByName(*procName)
	if err != nil {
		return err
	}
	period := *periodPS
	if period <= 0 {
		period = 1e6 / proc.ClockFreqMHz
	}
	switch cmd {
	case "power":
		steps, err := power.Table1Walk(power.ALPHA21064(), power.StrongARM110())
		if err != nil {
			return err
		}
		fmt.Print(power.FormatWalk(steps))
		fmt.Println("\nGenerations (§3 scaling story):")
		fmt.Println("  chip          MHz    power(W)  perf  perf/W")
		for _, r := range power.GenerationsTable() {
			fmt.Printf("  %-12s  %4.0f  %8.2f  %4.1f  %6.2f\n",
				r.Name, r.FreqMHz, r.PowerW, r.PerfRel, r.PerfPerW)
		}
		return nil

	case "sim":
		if len(args) < 2 {
			return fmt.Errorf("sim needs <design.fcl> <cycles> [input=value ...]")
		}
		cycles, err := strconv.Atoi(args[1])
		if err != nil || cycles < 0 {
			return fmt.Errorf("bad cycle count %q", args[1])
		}
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		prog, err := rtl.Parse(f)
		if err != nil {
			return err
		}
		sim, err := rtl.NewSim(prog)
		if err != nil {
			return err
		}
		for _, kv := range args[2:] {
			name, val, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("input drive %q must be name=value", kv)
			}
			v, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return fmt.Errorf("input drive %q: %v", kv, err)
			}
			if err := sim.Set(name, v); err != nil {
				return err
			}
		}
		fmt.Println(sim.Design().Stats())
		sim.Run(cycles)
		for _, out := range prog.Modules[prog.Top].Outputs() {
			fmt.Printf("  %s = %d\n", out.Name, sim.Get(out.Name))
		}
		return nil

	case "lint":
		return runLint(args, os.Stdout, os.Stderr)

	case "verify":
		return runVerify(args, proc, period, os.Stdout)

	case "serve":
		return runServe(args, proc, period, os.Stdout)

	case "top":
		return runTop(args, os.Stdout)

	case "bench":
		return runBench(args, os.Stdout)

	case "manifest-check":
		return runManifestCheck(args, os.Stdout)

	case "trend":
		return runTrend(args, os.Stdout)

	case "diff":
		return runDiff(args, os.Stdout)

	case "report":
		return runReport(args, os.Stdout)

	case "cache":
		return runCache(args, os.Stdout)
	}

	// Netlist-based subcommands.
	if len(args) < 1 {
		return fmt.Errorf("%s needs a SPICE deck", cmd)
	}
	flat, err := loadFlat(args)
	if err != nil {
		return err
	}
	switch cmd {
	case "recog":
		rec, err := recognize.Analyze(flat)
		if err != nil {
			return err
		}
		fmt.Println(rec.Summary())
		for _, g := range rec.Groups {
			fmt.Printf("  group %d: %s, %d devices", g.Index, g.Family, len(g.Devices))
			for _, f := range g.Funcs {
				if f.Function != nil {
					fmt.Printf("  %s=%s", flat.NodeName(f.Node), f.Function)
				}
			}
			fmt.Println()
		}
		return nil

	case "checks":
		rec, err := recognize.Analyze(flat)
		if err != nil {
			return err
		}
		rep, err := checks.RunAll(rec, netlist.ComputeSignatures(flat), checks.Options{Proc: proc, PeriodPS: period})
		if err != nil {
			return err
		}
		fmt.Print(rep.Summary())
		for _, f := range rep.Violations() {
			fmt.Printf("  VIOLATION %s %s: %s\n", f.Check, f.Subject, f.Detail)
		}
		return nil

	case "timing":
		rec, err := recognize.Analyze(flat)
		if err != nil {
			return err
		}
		rep, err := timing.Analyze(rec, netlist.ComputeSignatures(flat), timing.Options{Proc: proc, Clock: timing.TwoPhase(period)})
		if err != nil {
			return err
		}
		fmt.Printf("endpoints=%d races=%d min-period=%.0f ps\n",
			len(rep.Paths), len(rep.Races), rep.MinPeriodPS)
		if cp := rep.CriticalPath(); cp != nil {
			fmt.Printf("critical: %v (slack %.0f ps)\n", rep.PathNodeNames(cp), cp.SetupSlack)
		}
		for _, r := range rep.Races {
			fmt.Printf("RACE at %s: hold slack %.0f ps\n", flat.NodeName(r.Endpoint), r.HoldSlack)
		}
		return nil

	case "layout":
		m, err := layout.Place(flat, proc)
		if err != nil {
			return err
		}
		fmt.Println(m.Summary())
		return nil

	case "cbc":
		rep, err := core.CheckCBC(flat, proc)
		if err != nil {
			return err
		}
		fmt.Printf("CBC: accepted %d groups, rejected %d\n", rep.Accepted, len(rep.Rejections))
		for _, r := range rep.Rejections {
			fmt.Printf("  group %d (%s): %s\n", r.Group, r.Family, r.Reason)
		}
		return nil

	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}

// runVerify is the fleet-backed verify subcommand:
//
//	fcv verify [-j N] [-cells] [-quiet] <deck.sp>... [top]
//
// With one deck it verifies the inferred (or named) top, exactly the old
// single-design behaviour. With -cells it treats every cell of every
// deck as a corpus member; with several decks each becomes one item.
// Results are memoized under structural fingerprints, so twins verify
// once.
// Exit codes: 0 all designs pass or need inspection only, 1 any design
// in violation or erroring, 2 operational failure (bad flags, unreadable
// deck).
func runVerify(args []string, proc *process.Process, period float64, out *os.File) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	workers := fs.Int("j", 0, "parallel verification workers (0 = GOMAXPROCS)")
	cells := fs.Bool("cells", false, "verify every cell of each deck, not just the top")
	cacheDir := fs.String("cache-dir", os.Getenv("FCV_CACHE_DIR"), "persistent result cache directory (default $FCV_CACHE_DIR; empty = off)")
	hierMode := fs.Bool("hier", false, "hierarchical incremental verification: key each subcell on its fingerprint DAG and compose parent verdicts (single deck)")
	hierInline := fs.Int("hier-inline", 0, "fold cells flattening to at most this many devices into their parent's scope (0 = default 16, negative keeps every cell)")
	quiet := fs.Bool("quiet", false, "suppress per-design timing breakdown")
	manifestPath := fs.String("manifest", "", "write a run-manifest JSON (schema "+obs.SchemaID+") to this path")
	eventsPath := fs.String("events", "", "stream live JSONL events (stage/finding/cache) to this path")
	lintGate := fs.Bool("lint", false, "run the static lint gate before the electrical battery")
	trace := fs.Bool("trace", false, "print the span tree and counters after the report")
	pprofLabels := fs.Bool("pprof-labels", false, "tag worker goroutines with fcv_cell/fcv_stage pprof labels")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) < 1 {
		return fmt.Errorf("verify needs a SPICE deck")
	}
	// A trailing argument that is not a readable file names the top cell
	// (single-deck back-compat: `fcv verify deck.sp mytop`).
	decks, top := rest, ""
	if len(rest) >= 2 {
		if _, err := os.Stat(rest[len(rest)-1]); err != nil {
			top = rest[len(rest)-1]
			decks = rest[:len(rest)-1]
		}
	}
	if top != "" && len(decks) > 1 {
		return fmt.Errorf("verify: a top cell name applies to a single deck")
	}
	if *hierMode && (len(decks) > 1 || *cells) {
		return fmt.Errorf("verify: -hier applies to a single deck without -cells")
	}
	var items []fleet.Item
	for _, deck := range decks {
		if *hierMode {
			break // the hierarchy is resolved below, unflattened
		}
		its, err := deckItems(deck, top, *cells)
		if err != nil {
			return err
		}
		for _, it := range its {
			if *cells || len(decks) > 1 {
				it.Name = deck + ":" + it.Name
			}
			items = append(items, it)
		}
	}
	opt := fleet.Options{
		Core:        core.Options{Proc: proc, Clock: timing.TwoPhase(period), Lint: *lintGate},
		Workers:     *workers,
		PprofLabels: *pprofLabels,
	}
	if *cacheDir != "" {
		d, err := fleet.OpenDiskCache(*cacheDir)
		if err != nil {
			return err
		}
		opt.DiskCache = d
	}
	var col *obs.Collector
	if *manifestPath != "" || *trace {
		col = obs.New()
		opt.Obs = col
	}
	var eventsFile *os.File
	if *eventsPath != "" {
		ef, err := os.Create(*eventsPath)
		if err != nil {
			return err
		}
		eventsFile = ef
		opt.Events = obs.NewEventSink(ef)
	}
	var rep *fleet.Report
	if *hierMode {
		lib, root, err := deckHier(decks[0], top)
		if err != nil {
			return err
		}
		opt.HierInline = *hierInline
		rep, err = fleet.VerifyHier(lib, root, opt)
		if err != nil {
			return err
		}
	} else {
		rep = fleet.Verify(items, opt)
	}
	if eventsFile != nil {
		// The fleet emitted run-end, so the stream is complete; close the
		// sink and surface any latched write error before the exit-code
		// decision.
		if err := opt.Events.Close(); err != nil {
			eventsFile.Close()
			return fmt.Errorf("events: %w", err)
		}
		if err := eventsFile.Close(); err != nil {
			return err
		}
	}
	fmt.Fprint(out, rep.Text())
	if !*quiet {
		fmt.Fprint(out, rep.TimingText())
	}
	if *trace {
		fmt.Fprint(out, col.Tree())
		fmt.Fprint(out, col.CountersText())
	}
	if *manifestPath != "" {
		if err := fleet.BuildManifest("fcv verify", rep, col).WriteFile(*manifestPath); err != nil {
			return err
		}
	}
	if rep.HasViolations() {
		_, _, violation, failed := rep.Counts()
		return fmt.Errorf("%w: %d violation(s), %d error(s)", errVerifyFindings, violation, failed)
	}
	return nil
}

// runLint is the lint subcommand: parse the deck, lint every cell in
// parallel, render in the requested format, report each waiver entry
// that matched no finding on errOut, and signal unwaived error-severity
// findings through errLintFindings (exit code 1).
func runLint(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	format := fs.String("format", "text", "output format: text, json, sarif")
	waiverPath := fs.String("waivers", "", "waiver file (RULE CELL SUBJECT note… per line)")
	fanout := fs.Int("fanout", 0, "FCV010 gate-fanout ceiling (0 = default 64)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) < 1 {
		return fmt.Errorf("lint needs a SPICE deck")
	}
	top := ""
	if len(rest) >= 2 {
		top = rest[1]
	}
	lib, root, err := deckHier(rest[0], top)
	if err != nil {
		return err
	}
	// The design root (for FCV008 reachability) follows the top-cell
	// rule; a soup root is linted as a cell too.
	if lib.Cell(root.Name) != root {
		lib.Add(root)
	}
	opt := lint.LibraryOptions{Roots: []string{root.Name}}
	opt.FanoutLimit = *fanout
	if *waiverPath != "" {
		w, err := lint.LoadWaivers(*waiverPath)
		if err != nil {
			return err
		}
		opt.Waivers = w
	}
	rep, err := lint.LintLibrary(lib, opt)
	if err != nil {
		return err
	}
	if opt.Waivers != nil {
		for _, w := range opt.Waivers.Unused() {
			fmt.Fprintf(errOut, "%s:%d: unused waiver %s %s %s\n", *waiverPath, w.Line, w.Rule, w.Cell, w.Subject)
		}
	}
	switch *format {
	case "text":
		fmt.Fprint(out, rep.Text())
	case "json":
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(b))
	case "sarif":
		b, err := rep.SARIF()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(b))
	default:
		return fmt.Errorf("lint: unknown format %q (want text, json or sarif)", *format)
	}
	if rep.HasErrors() {
		errs, _, _ := rep.Counts()
		return fmt.Errorf("%w: %d unwaived error(s)", errLintFindings, errs)
	}
	return nil
}

// loadFlat flattens a deck's root: the top named by args[1], or the one
// the top-cell rule picks.
func loadFlat(args []string) (*netlist.Circuit, error) {
	top := ""
	if len(args) >= 2 {
		top = args[1]
	}
	items, err := deckItems(args[0], top, false)
	if err != nil {
		return nil, err
	}
	return items[0].Circuit, nil
}

// deckItems opens a deck and returns its fleet items exactly as POST
// /verify builds them from the same bytes (fleet.ItemsFromDeck). The
// path is the source name of every parse location.
func deckItems(path, top string, cells bool) ([]fleet.Item, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fleet.ItemsFromDeck(f, path, top, cells)
}

// deckHier opens a deck and resolves its library and root under the
// top-cell rule (fleet.HierFromDeck).
func deckHier(path, top string) (*netlist.Library, *netlist.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return fleet.HierFromDeck(f, path, top)
}
