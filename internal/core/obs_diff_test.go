package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"isex/internal/dfg"
	"isex/internal/obs"
)

// This file is the differential suite for the telemetry subsystem: every
// search must return the bit-identical result — and, where the engine
// contract promises deterministic Stats, the bit-identical Stats — with
// full tracing enabled as with the probe nil. Observation must never
// change the search.

// fullProbe returns a probe with both the flight recorder and an
// injector (one that only counts donations) attached — the most
// invasive configuration the subsystem has.
func fullProbe() *obs.Probe {
	return &obs.Probe{
		Rec: obs.NewRecorder(obs.DefaultRingCap),
		Inj: &donationCounter{},
	}
}

// diffWorkers are the engine sizes the differential suite sweeps; 0 is
// the serial search.
var diffWorkers = []int{0, 1, 4, 8}

// diffConfig builds the search config for one sweep point. Pruned mirrors
// the benches' pruned configuration (merit bound + permanent-input
// bound).
func diffConfig(workers int, pruned bool) Config {
	cfg := Config{Nin: 6, Nout: 2, Workers: workers}
	if pruned {
		cfg.PruneMerit = true
		cfg.PruneInputs = true
	}
	return cfg
}

// statsComparable reports whether the engine contract promises exact
// Stats equality for this sweep point: always for the serial search, and
// for the parallel engine exactly when the merit bound is off (a shared
// incumbent bound makes per-run visit counts timing-dependent).
func statsComparable(workers int, pruned bool) bool {
	return workers == 0 || !pruned
}

// TestObsDifferentialSingle runs the single-cut search with the probe
// off and fully on, and demands the same search end to end: on a random
// graph, on fir's hottest block, and (not under -short) on g721's
// g721_encode/body2 at 2/1, the largest block of the suite.
func TestObsDifferentialSingle(t *testing.T) {
	type input struct {
		name      string
		g         *dfg.Graph
		nin, nout int
	}
	rng := rand.New(rand.NewSource(77))
	inputs := []input{
		{"random", randomGraph(t, rng, 30), 6, 2},
		{"fir", hotBlock(t, "fir"), 2, 1},
	}
	if !testing.Short() {
		inputs = append(inputs, input{"g721", hotBlock(t, "g721"), 2, 1})
	}
	for _, in := range inputs {
		for _, pruned := range []bool{false, true} {
			for _, w := range diffWorkers {
				cfg := diffConfig(w, pruned)
				cfg.Nin, cfg.Nout = in.nin, in.nout
				base := FindBestCutCtx(context.Background(), in.g, cfg)
				label := fmt.Sprintf("%s workers=%d pruned=%v", in.name, w, pruned)
				cfg.Probe = fullProbe()
				got := FindBestCutCtx(context.Background(), in.g, cfg)
				if base.Found != got.Found || !reflect.DeepEqual(base.Cut, got.Cut) ||
					base.Est != got.Est || base.Status != got.Status {
					t.Errorf("%s: observed result diverged:\n base=%+v\n  got=%+v", label, base, got)
				}
				if statsComparable(w, pruned) && base.Stats != got.Stats {
					t.Errorf("%s: observed Stats diverged: base=%+v got=%+v", label, base.Stats, got.Stats)
				}
				// The probe must actually have observed the search — a
				// silent no-op probe would make this whole suite vacuous.
				if len(cfg.Probe.Rec.Merge()) == 0 {
					t.Errorf("%s: flight recorder captured no events", label)
				}
			}
		}
	}
}

func TestObsDifferentialMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// The (M+1)-ary tree is far bigger than the binary one; the multi
	// sweep uses the graph size the exhaustive multi unit tests use.
	g := randomGraph(t, rng, 16)
	for _, pruned := range []bool{false, true} {
		for _, w := range diffWorkers {
			cfg := diffConfig(w, pruned)
			cfg.Nin = 4
			base := FindBestCutsCtx(context.Background(), g, 2, cfg)
			cfg.Probe = fullProbe()
			traced := FindBestCutsCtx(context.Background(), g, 2, cfg)

			if base.Found != traced.Found || !reflect.DeepEqual(base.Cuts, traced.Cuts) ||
				!reflect.DeepEqual(base.Ests, traced.Ests) ||
				base.TotalMerit != traced.TotalMerit || base.Status != traced.Status {
				t.Errorf("workers=%d pruned=%v: traced multi result diverged:\n base=%+v\ntraced=%+v",
					w, pruned, base, traced)
			}
			if statsComparable(w, pruned) && base.Stats != traced.Stats {
				t.Errorf("workers=%d pruned=%v: traced multi Stats diverged: base=%+v traced=%+v",
					w, pruned, base.Stats, traced.Stats)
			}
		}
	}
}

// TestObsDifferentialSelection runs the full iterative selection with
// and without tracing and demands identical selections, merits,
// per-block statuses and call accounting.
func TestObsDifferentialSelection(t *testing.T) {
	mod := compileAndProfile(t, threeKernels)
	for _, pruned := range []bool{false, true} {
		for _, w := range diffWorkers {
			cfg := diffConfig(w, pruned)
			cfg.Nin, cfg.Nout = 4, 2
			base := SelectIterativeCtx(context.Background(), mod, 4, cfg)
			cfg.Probe = fullProbe()
			traced := SelectIterativeCtx(context.Background(), mod, 4, cfg)

			if !reflect.DeepEqual(base.Instructions, traced.Instructions) {
				t.Errorf("workers=%d pruned=%v: traced selection chose different instructions",
					w, pruned)
			}
			if base.TotalMerit != traced.TotalMerit || base.Status != traced.Status ||
				base.IdentCalls != traced.IdentCalls {
				t.Errorf("workers=%d pruned=%v: merit/status/calls diverged: base=(%d,%v,%d) traced=(%d,%v,%d)",
					w, pruned, base.TotalMerit, base.Status, base.IdentCalls,
					traced.TotalMerit, traced.Status, traced.IdentCalls)
			}
			if !reflect.DeepEqual(base.Blocks, traced.Blocks) {
				t.Errorf("workers=%d pruned=%v: per-block statuses diverged:\n base=%+v\ntraced=%+v",
					w, pruned, base.Blocks, traced.Blocks)
			}
			if statsComparable(w, pruned) && base.Stats != traced.Stats {
				t.Errorf("workers=%d pruned=%v: selection Stats diverged: base=%+v traced=%+v",
					w, pruned, base.Stats, traced.Stats)
			}
		}
	}
}

// TestObsMetricsOnlyDifferential: the MetricsOnly stripping used by the
// windowed rescue must not perturb results either.
func TestObsMetricsOnlyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(t, rng, 30)
	cfg := Config{Nin: 6, Nout: 2, MaxCuts: 32}
	base, bbs := searchBlockSafe(context.Background(), g, cfg)
	cfg.Probe = fullProbe()
	traced, tbs := searchBlockSafe(context.Background(), g, cfg)
	if base.Found != traced.Found || !reflect.DeepEqual(base.Cut, traced.Cut) ||
		base.Est != traced.Est || base.Status != traced.Status || base.Stats != traced.Stats {
		t.Errorf("traced rescue diverged:\n base=%+v\ntraced=%+v", base, traced)
	}
	if bbs.Status != tbs.Status || bbs.Fallback != tbs.Fallback {
		t.Errorf("traced block status diverged: base=%+v traced=%+v", bbs, tbs)
	}
}
