package analyze_test

import (
	"context"
	"runtime"
	"testing"

	"isex/internal/core"
	"isex/internal/obs"
	"isex/internal/obs/analyze"
	"isex/internal/workload"
)

// prunedConfig is the serial search with both sound §6.1 prunings, as
// the pipeline benchmark runs it.
func prunedConfig(nin, nout int, maxCuts int64, probe *obs.Probe) core.Config {
	return core.Config{Nin: nin, Nout: nout, MaxCuts: maxCuts,
		PruneInputs: true, PruneMerit: true, Probe: probe}
}

// TestExplainCountsExact: the explain report's cut, prune and bound
// totals are the searchers' own counters, so they equal the selection's
// Stats exactly, and the recorder drops nothing at its default capacity.
// The runs are the exhaustive, unbudgeted 8/4 selections on which
// per-cut prune events once overflowed the recorder.
func TestExplainCountsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two exhaustive 8/4 selections")
	}
	for _, name := range []string{"adpcmdecode", "crc32"} {
		m, err := workload.ByName(name).Prepare()
		if err != nil {
			t.Fatal(err)
		}
		probe := &obs.Probe{Rec: obs.NewRecorder(obs.DefaultRingCap)}
		sel := core.SelectIterativeCtx(context.Background(), m, 8, prunedConfig(8, 4, 0, probe))
		for _, b := range sel.Blocks {
			if b.Status != core.Exhaustive || b.Fallback || b.Rung != core.RungExact {
				t.Fatalf("%s: block %s/%s is %v (rung %v, rescued %v); the check needs exhaustive exact searches",
					name, b.Fn, b.Block, b.Status, b.Rung, b.Fallback)
			}
		}
		if n := probe.Rec.Dropped(); n != 0 {
			t.Fatalf("%s: recorder dropped %d events", name, n)
		}
		rep := analyze.BuildExplain(analyze.Build(probe.Rec.Merge()))
		var got core.Stats
		for _, s := range rep.Stages {
			got.CutsConsidered += s.Cuts
			got.Pruned += s.Prunes
			got.Bounded += s.Bounds
		}
		want := sel.Stats
		if got.CutsConsidered != want.CutsConsidered || got.Pruned != want.Pruned || got.Bounded != want.Bounded {
			t.Errorf("%s: explain reads %d cuts, %d feasibility prunes, %d bound prunes; Stats say %d, %d, %d",
				name, got.CutsConsidered, got.Pruned, got.Bounded,
				want.CutsConsidered, want.Pruned, want.Bounded)
		}
		if want.Pruned == 0 || want.Bounded == 0 {
			t.Errorf("%s: Stats %+v prune nothing; the check is vacuous", name, want)
		}
	}
}

// TestTraceIsCheap: a traced selection records tens of events, not one
// per cut, and allocates little beyond the untraced run once the
// recorder exists — adpcmdecode at 4/2 under the pipeline benchmark's
// search config.
func TestTraceIsCheap(t *testing.T) {
	m, err := workload.ByName("adpcmdecode").Prepare()
	if err != nil {
		t.Fatal(err)
	}
	run := func(probe *obs.Probe) (core.SelectionResult, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sel := core.SelectIterativeCtx(context.Background(), m, 8, prunedConfig(4, 2, 2_000_000, probe))
		runtime.ReadMemStats(&after)
		return sel, after.TotalAlloc - before.TotalAlloc
	}
	bare, bareBytes := run(nil)
	probe := &obs.Probe{Rec: obs.NewRecorder(obs.DefaultRingCap)}
	traced, tracedBytes := run(probe)
	if traced.TotalMerit != bare.TotalMerit || traced.Stats != bare.Stats {
		t.Fatalf("tracing changed the selection: merit %d vs %d, Stats %+v vs %+v",
			traced.TotalMerit, bare.TotalMerit, traced.Stats, bare.Stats)
	}
	if n := len(probe.Rec.Merge()); n > 100 {
		t.Errorf("traced selection recorded %d events, want at most 100", n)
	}
	if extra := int64(tracedBytes) - int64(bareBytes); extra >= 1<<20 {
		t.Errorf("tracing allocated %d bytes more than the untraced run (%d vs %d), want under 1 MiB",
			extra, tracedBytes, bareBytes)
	}
}
