package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func tinyConfig(seed int64, traced bool) config {
	return config{seed: seed, budget: 20 * time.Millisecond, traced: traced, nproc: 2, setups: 1, tiny: true}
}

// TestCountsRepeat runs every workload at test size: the same seed
// gives identical work counts and inputs, another seed other inputs,
// and every output check passes.
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs [3]*result
			for k, seed := range []int64{1, 1, 2} {
				r, err := w.run(tinyConfig(seed, false))
				if err != nil {
					t.Fatal(err)
				}
				if r.failed() > 0 || len(r.problems) > 0 {
					t.Fatalf("seed %d: %d failed ops: %v", seed, r.failed(), r.problems)
				}
				runs[k] = r
			}
			if len(runs[0].work) == 0 || runs[0].heapMB <= 0 {
				t.Fatalf("checkpoint not reached: counts %v, heap %v", runs[0].work, runs[0].heapMB)
			}
			if !reflect.DeepEqual(runs[0].work, runs[1].work) {
				t.Errorf("same seed, different counts:\n%v\n%v", runs[0].work, runs[1].work)
			}
			if runs[0].digest != runs[1].digest {
				t.Errorf("same seed, different inputs: %s vs %s", runs[0].digest, runs[1].digest)
			}
			if runs[0].digest == runs[2].digest {
				t.Errorf("seeds 1 and 2 generated the same inputs (%s)", runs[0].digest)
			}
		})
	}
}

// TestTracedRun checks a traced run accounts its op time and reports
// every per-layer metric, and that its spans round-trip through the
// span file.
func TestTracedRun(t *testing.T) {
	touched := map[string][]string{
		"batch-cold": {"netlist.parse_ms", "netlist.fingerprint_ms", "recognize.analyze_ms", "fleet.self_ms", "obs.manifest_ms"},
		"hier-edit":  {"netlist.write_ms", "netlist.dag_hash_ms", "hier.scope_ms", "hier.boundary_ms", "fleet.self_ms"},
		"serve-mix":  {"serve.handler_ms", "serve.transport_ms", "netlist.fingerprint_ms", "obs.manifest_ms"},
		"shadow-sim": {"switchsim.settle_ms", "rtl.step_ms", "shadow.compare_ms"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.run(tinyConfig(3, true))
			if err != nil {
				t.Fatal(err)
			}
			if r.ledger == nil || r.ledger.opMS <= 0 {
				t.Fatalf("no ledger: %+v", r.ledger)
			}
			var out bytes.Buffer
			metrics := report(&out, &w, r)
			if len(metrics) != len(layerMetrics) {
				t.Errorf("%d metrics, want every per-layer metric (%d)", len(metrics), len(layerMetrics))
			}
			for _, name := range touched[w.name] {
				if metrics[name].Value == 0 {
					t.Errorf("%s = 0, want the layer's self time\n%s", name, out.String())
				}
			}
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := r.tracer.write(path); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResultLine checks the last output line is the JSON result with
// exactly the keys the benchmark contract names.
func TestResultLine(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errw); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	w := workloads[3]
	r, err := w.run(tinyConfig(1, false))
	if err != nil {
		t.Fatal(err)
	}
	metrics := report(&out, &w, r)
	for _, name := range []string{"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "heap_mb"} {
		if m, ok := metrics[name]; !ok || m.Value <= 0 || m.Unit == "" {
			t.Errorf("metric %s = %+v, want a positive value with a unit", name, m)
		}
	}
	b, err := json.Marshal(map[string]any{"metrics": metrics})
	if err != nil || !strings.Contains(string(b), `"unit":"1/s"`) {
		t.Errorf("metrics do not encode: %s %v", b, err)
	}
}
