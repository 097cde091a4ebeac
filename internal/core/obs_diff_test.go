package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"isex/internal/obs"
)

// This file is the differential suite for the telemetry subsystem: every
// search must return the bit-identical result — and, where the engine
// contract promises deterministic Stats, the bit-identical Stats — with
// full tracing enabled as with the probe nil. Observation must never
// change the search.

// fullProbe returns a probe with both the flight recorder and the metrics
// registry enabled — the most invasive configuration the subsystem has.
func fullProbe() *obs.Probe {
	return &obs.Probe{
		Rec: obs.NewRecorder(obs.DefaultRingCap),
		Met: obs.NewMetrics(obs.NewRegistry()),
	}
}

// diffWorkers are the engine sizes the differential suite sweeps; 0 is
// the serial search.
var diffWorkers = []int{0, 1, 4, 8}

// diffConfig builds the search config for one sweep point. Pruned mirrors
// the benches' pruned configuration (merit bound + permanent-input bound
// + warm start).
func diffConfig(workers int, pruned bool) Config {
	cfg := Config{Nin: 6, Nout: 2, Workers: workers}
	if pruned {
		cfg.PruneMerit = true
		cfg.PruneInputs = true
		cfg.WarmStart = true
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

func TestObsDifferentialSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomGraph(t, rng, 30)
	for _, pruned := range []bool{false, true} {
		for _, w := range diffWorkers {
			cfg := diffConfig(w, pruned)
			base := FindBestCutCtx(context.Background(), g, cfg)
			probe := fullProbe()
			cfg.Probe = probe
			traced := FindBestCutCtx(context.Background(), g, cfg)

			if base.Found != traced.Found || !reflect.DeepEqual(base.Cut, traced.Cut) ||
				base.Est != traced.Est || base.Status != traced.Status {
				t.Errorf("workers=%d pruned=%v: traced result diverged:\n base=%+v\ntraced=%+v",
					w, pruned, base, traced)
			}
			if statsComparable(w, pruned) && base.Stats != traced.Stats {
				t.Errorf("workers=%d pruned=%v: traced Stats diverged: base=%+v traced=%+v",
					w, pruned, base.Stats, traced.Stats)
			}
			// The probe must actually have observed the search — a silent
			// no-op probe would make this whole suite vacuous. Exact
			// registry parity holds only for the serial unpruned search
			// (a warm pass flushes its own cuts into the registry without
			// charging the result's Stats).
			snap := probe.Met.Registry().Snapshot()
			c, _ := snap["search_cuts_considered_total"].(int64)
			if w == 0 && !pruned && c != base.Stats.CutsConsidered {
				t.Errorf("workers=%d pruned=%v: registry saw %d considered cuts, Stats say %d",
					w, pruned, c, base.Stats.CutsConsidered)
			}
			if c < traced.Stats.CutsConsidered {
				t.Errorf("workers=%d pruned=%v: registry saw %d considered cuts, below Stats %d",
					w, pruned, c, traced.Stats.CutsConsidered)
			}
			if len(probe.Rec.Merge()) == 0 {
				t.Errorf("workers=%d pruned=%v: flight recorder captured no events", w, pruned)
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
			cfg.Parallel = w > 0
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
// windowed rescue and warm passes must not perturb results either.
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
