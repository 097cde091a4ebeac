package pipeline

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"isex/internal/core"
	"isex/internal/latency"
	"isex/internal/sim"
	"isex/internal/workload"
)

// TestMeasuredSpeedupMatchesEstimate is the headline validation: for each
// kernel, the cycle gain measured on the patched program must equal the
// summed merit estimated by the identification (both use the same
// latency model, so equality is exact, modulo cuts the patcher had to
// skip).
func TestMeasuredSpeedupMatchesEstimate(t *testing.T) {
	for _, k := range workload.All() {
		t.Run(k.Name, func(t *testing.T) {
			cfg := core.Config{Nin: 4, Nout: 2, MaxCuts: 2_000_000}
			rep, err := Run(context.Background(), k, Options{Ninstr: 8, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			sel := rep.Selection
			if len(sel.Instructions) == 0 {
				t.Fatal("nothing identified")
			}
			var expected int64
			for _, s := range sel.Instructions {
				if !slices.ContainsFunc(rep.Skipped, func(sk core.Selected) bool {
					return sk.Block == s.Block && slices.Equal(sk.InstrIndexes, s.InstrIndexes)
				}) {
					expected += s.Est.Merit
				}
			}
			saved := rep.BaseCycles - rep.PatchedCycles
			if saved <= 0 {
				t.Fatalf("no measured gain: base %d, patched %d", rep.BaseCycles, rep.PatchedCycles)
			}
			// The estimate assumes the same single-issue model, so the
			// measured saving equals the summed merit exactly.
			if saved != expected {
				t.Errorf("measured saving %d, estimated %d (speedup %.3f)",
					saved, expected, float64(rep.BaseCycles)/float64(rep.PatchedCycles))
			}
		})
	}
}

func TestPerturbedModelStillGains(t *testing.T) {
	// Robustness (DESIGN.md §4): identification under a ±30%-perturbed
	// hardware model still yields positive measured gains.
	pert := latency.Default().Perturbed(7, 0.3)
	cfg := core.Config{Nin: 4, Nout: 2, Model: pert, MaxCuts: 2_000_000}
	rep, err := Run(context.Background(), workload.AdpcmDecode(), Options{Ninstr: 8, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Selection.Instructions) == 0 {
		t.Fatal("nothing identified under perturbed model")
	}
	if rep.PatchedCycles >= rep.BaseCycles {
		t.Errorf("perturbed speedup %.3f", float64(rep.BaseCycles)/float64(rep.PatchedCycles))
	}
}

// TestCyclesMatchSimulator: Run's two prices of the profiled runs equal
// what the simulator measures for a fresh build and for the patched
// module, and every selected cut is either materialized, with Verilog,
// or skipped — for every kernel, port point and Fig. 11 method. Under
// -short a subset runs.
func TestCyclesMatchSimulator(t *testing.T) {
	kernels := workload.All()
	ports := [][2]int{{2, 1}, {4, 2}, {4, 3}, {8, 4}}
	if testing.Short() {
		kernels = []*workload.Kernel{workload.ByName("adpcmdecode"), workload.ByName("sha"), workload.ByName("fft")}
		ports = [][2]int{{2, 1}, {4, 2}}
	}
	for _, k := range kernels {
		fresh, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		runner := &sim.Runner{Setup: k.SetInputs}
		base, err := runner.Run(fresh, k.Entry, k.Args...)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ports {
			for _, method := range Methods[:4] {
				t.Run(fmt.Sprintf("%s/%d-%d/%s", k.Name, p[0], p[1], method), func(t *testing.T) {
					cfg := core.Config{Nin: p[0], Nout: p[1], MaxCuts: 2_000_000, PruneInputs: true, PruneMerit: true}
					rep, err := Run(context.Background(), k, Options{Method: method, Ninstr: 8, Config: cfg})
					if err != nil {
						t.Fatal(err)
					}
					patched, err := runner.Run(rep.Module, k.Entry, k.Args...)
					if err != nil {
						t.Fatal(err)
					}
					if rep.BaseCycles != base.Cycles || rep.PatchedCycles != patched.Cycles {
						t.Errorf("priced %d -> %d cycles, simulated %d -> %d",
							rep.BaseCycles, rep.PatchedCycles, base.Cycles, patched.Cycles)
					}
					if n := len(rep.AFUs) + len(rep.Skipped); n != len(rep.Selection.Instructions) || len(rep.Verilog) != len(rep.AFUs) {
						t.Errorf("%d selected, %d materialized, %d skipped, %d rendered",
							len(rep.Selection.Instructions), len(rep.AFUs), len(rep.Skipped), len(rep.Verilog))
					}
				})
			}
		}
	}
}

// TestUnknownMethod: a method Select does not know is an error that
// names it, from Select and from Run.
func TestUnknownMethod(t *testing.T) {
	k := workload.ByName("fir")
	m, err := k.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Select(context.Background(), "nosuch", m, 1, core.Config{Nin: 2, Nout: 1}); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("Select: err = %v, want an error naming the method", err)
	}
	if _, err := Run(context.Background(), k, Options{Method: "nosuch", Ninstr: 1, Config: core.Config{Nin: 2, Nout: 1}}); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("Run: err = %v, want an error naming the method", err)
	}
}

// TestDiffOutputs: the output check names the first global element, or
// the return value, that a planted difference changes.
func TestDiffOutputs(t *testing.T) {
	want := outputs{ret: 7, names: []string{"a", "b"}, globals: [][]int32{{1, 2}, {3, 4, 5}}}
	same := outputs{ret: 7, names: want.names, globals: [][]int32{{1, 2}, {3, 4, 5}}}
	if err := diffOutputs(want, same); err != nil {
		t.Fatalf("equal outputs reported as different: %v", err)
	}
	planted := outputs{ret: 7, names: want.names, globals: [][]int32{{1, 2}, {3, 9, 6}}}
	if err := diffOutputs(want, planted); err == nil || err.Error() != "b[1] = 9, the original 4" {
		t.Errorf("planted global difference: err = %v", err)
	}
	planted = outputs{ret: 8, names: want.names, globals: want.globals}
	if err := diffOutputs(want, planted); err == nil || !strings.Contains(err.Error(), "returned 8") {
		t.Errorf("planted return-value difference: err = %v", err)
	}
}
