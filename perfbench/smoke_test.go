package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload at its minimal length (one pass, two
// when traced) and checks that each declared metric prints with its
// unit, that every job passes its correctness check, that the
// deterministic metrics repeat exactly under one seed, and that the
// traced run records a span for every layer.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i])
		}
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			run := func(trace bool, outdir string) *result {
				res, err := bench(context.Background(),
					options{workload: w, seed: 7, trace: trace, outdir: outdir}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				return res
			}
			a, b := run(false, ""), run(false, "")
			for _, m := range spec.EndToEnd {
				got, ok := a.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if len(a.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run prints %d metrics, BENCHMARK.json declares %d", len(a.Metrics), len(spec.EndToEnd))
			}
			if v := a.Metrics["ok_frac"].Value; v != 1 {
				t.Errorf("ok_frac = %v, want 1", v)
			}
			for _, name := range []string{"ok_frac", "exhaustive_frac", "speedup_geomean", "gain_fidelity"} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s differs between two runs with one seed: %v vs %v", name, a.Metrics[name], b.Metrics[name])
				}
			}

			dir := t.TempDir()
			tr := run(true, dir)
			for _, m := range spec.PerLayer {
				got, ok := tr.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if len(tr.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run prints %d metrics, BENCHMARK.json declares %d", len(tr.Metrics), len(spec.PerLayer))
			}
			if v := tr.Metrics["core.select.work_repeat_frac"].Value; v != 1 {
				t.Errorf("core.select.work_repeat_frac = %v, want 1", v)
			}
			traceFile, err := os.ReadFile(filepath.Join(dir, "trace-"+w+"-7.json"))
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct {
				TraceEvents []struct{ Name string } `json:"traceEvents"`
			}
			if err := json.Unmarshal(traceFile, &chrome); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, e := range chrome.TraceEvents {
				seen[e.Name] = true
			}
			want := append([]string{"job"}, layers...)
			if w == "dse-sweep" {
				want = append(want, "dse")
			}
			for _, name := range want {
				if !seen[name] {
					t.Errorf("traced run recorded no %q span", name)
				}
			}
		})
	}
}
