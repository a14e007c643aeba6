// Command perfbench is the repository benchmark. It runs one named
// workload against fcv's public packages, in its own process, on inputs
// generated from --seed, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer ledger) followed by one JSON result line:
//
//	go run . --workload batch-cold --seed 1 --seconds 20 --trace 0
//
// run.sh in this directory builds it from a repository checkout and is
// what BENCHMARK.json invokes. WORKLOADS.md explains the workloads, the
// metrics and how to read the ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// tail is the op_tail_ms percentile: the highest of p99 and p90
	// that leaves at least ten samples beyond it at the reference run
	// length (20 s on the 2-core reference host).
	tail float64
	run  func(config) (*result, error)
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median, which a single set-up's scheduling noise cannot move.
const setupReps = 5

var workloads = []workload{
	{"batch-cold", 0.99, runBatchCold},
	{"hier-edit", 0.99, runHierEdit},
	{"serve-mix", 0.99, runServeMix},
	{"shadow-sim", 0.90, runShadowSim},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: batch-cold, hier-edit, serve-mix or shadow-sim")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs half the time untraced and half traced, and prints the per-layer ledger")
	spans := fs.String("spans", "", "where a traced run writes its spans (default <build dir>/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for k := range workloads {
		if workloads[k].name == *name {
			w = &workloads[k]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload batch-cold|hier-edit|serve-mix|shadow-sim, --seconds > 0 and --trace 0|1")
		return 2
	}
	cfg := config{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
		nproc:  runtime.NumCPU(),
		setups: setupReps,
	}
	if cfg.traced {
		cfg.setups = 1
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		w.name, cfg.seed, *seconds, *trace, cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version())
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	metrics := report(stdout, w, res)
	if res.tracer != nil {
		path := *spans
		if path == "" {
			dir := os.Getenv("PERFBENCH_OUT")
			if dir == "" {
				dir = ".bench_build"
			}
			path = filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
		}
		if err := res.tracer.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	correct := res.failed() == 0 && len(res.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted(), res.failed(), metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite keeps a metric JSON-encodable: a latency percentile that
// landed on a failed op reads as the largest float.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// report prints the human-readable summary and returns the metrics of
// the result line: the end-to-end set untraced, the ledger traced.
func report(w io.Writer, wl *workload, res *result) map[string]metric {
	out := map[string]metric{}
	var info strings.Builder
	fmt.Fprintf(&info, "input digest %s; counts at op %d:", res.digest, res.heapAt)
	for _, c := range res.work {
		fmt.Fprintf(&info, " %s=%d", c.name, c.value)
	}
	fmt.Fprintln(w, info.String())
	for _, p := range res.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "attempted %d ops, failed %d\n", res.attempted(), res.failed())
	if res.ledger != nil {
		res.ledger.print(w, wl.name)
		for _, m := range layerMetrics {
			out[m.name] = metric{finite(res.ledger.metric(m.name, m.unit)), m.unit}
		}
		return out
	}
	setup := median(res.setupS)
	p50, _ := quantile(res.samples, 0.5)
	tail, beyond := quantile(res.samples, wl.tail)
	pct := fmt.Sprintf("p%.0f", 100*wl.tail)
	fmt.Fprintf(w, "setup_s     %10.4f s     median of %d set-ups %v\n", setup, len(res.setupS), res.setupS)
	fmt.Fprintf(w, "ops_per_s   %10.4f 1/s   %d ops in %.3f s\n", opsPerS(res.samples, res.wall), len(res.samples), res.wall.Seconds())
	fmt.Fprintf(w, "op_p50_ms   %10.4f ms\n", p50)
	fmt.Fprintf(w, "op_tail_ms  %10.4f ms    %s of %d samples, %d beyond\n", tail, pct, len(res.samples), beyond)
	if beyond < 10 {
		fmt.Fprintf(w, "WARNING: fewer than ten samples beyond %s; lengthen --seconds\n", pct)
	}
	fmt.Fprintf(w, "heap_mb     %10.4f MB    live heap after two GCs at op %d\n", res.heapMB, res.heapAt)
	out["setup_s"] = metric{setup, "s"}
	out["ops_per_s"] = metric{opsPerS(res.samples, res.wall), "1/s"}
	out["op_p50_ms"] = metric{finite(p50), "ms"}
	out["op_tail_ms"] = metric{finite(tail), "ms"}
	out["heap_mb"] = metric{res.heapMB, "MB"}
	return out
}
