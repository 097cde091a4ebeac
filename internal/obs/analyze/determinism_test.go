package analyze_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"isex/internal/core"
	"isex/internal/obs"
	"isex/internal/obs/analyze"
	"isex/internal/workload"
)

// TestExplainDeterministicAcrossWorkers is the acceptance-critical
// property: for exhaustive runs the deterministic attribution report is
// byte-identical for the serial search and across engine worker counts,
// and at every worker count its cut, feasibility-prune and bound-cutoff
// totals equal the selection's Stats. PruneMerit stays off so the
// feasibility-prune tallies — the searchers' own counters, summed over
// lanes — are a property of the search tree (the engine's exact-Stats
// parity), not of incumbent arrival timing.
func TestExplainDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full selections at several worker counts")
	}
	k := workload.ByName("fir")
	if k == nil {
		t.Fatal("fir kernel missing")
	}
	m, err := k.Prepare()
	if err != nil {
		t.Fatal(err)
	}

	var refJSON, refText []byte
	for _, workers := range []int{0, 1, 2, 8} {
		probe := &obs.Probe{Rec: obs.NewRecorder(obs.DefaultRingCap)}
		cfg := core.Config{
			Nin:     4,
			Nout:    2,
			Workers: workers,
			Probe:   probe,
		}
		sel := core.SelectIterativeCtx(context.Background(), m, 2, cfg)
		for _, b := range sel.Blocks {
			if b.Status != core.Exhaustive {
				t.Fatalf("workers=%d: block %s/%s not exhaustive (%v) — the byte-identity contract only covers exhaustive runs", workers, b.Fn, b.Block, b.Status)
			}
		}

		// Round-trip through JSONL exactly as `isex -trace` +
		// `isetrace -mode explain` would.
		var wire bytes.Buffer
		events := probe.Rec.Merge()
		if n := probe.Rec.Dropped(); n > 0 {
			t.Fatalf("workers=%d: recorder dropped %d events", workers, n)
		}
		if err := obs.WriteJSONL(&wire, events); err != nil {
			t.Fatal(err)
		}
		back, err := obs.ParseJSONL(&wire)
		if err != nil {
			t.Fatal(err)
		}
		a := analyze.Build(back)
		explain := analyze.BuildExplain(a)
		if got, want := explainStats(explain), sel.Stats; got.CutsConsidered != want.CutsConsidered || got.Pruned != want.Pruned || got.Bounded != want.Bounded {
			t.Errorf("workers=%d: explain reads %d cuts, %d feasibility prunes, %d bound cutoffs; Stats say %d, %d, %d",
				workers, got.CutsConsidered, got.Pruned, got.Bounded,
				want.CutsConsidered, want.Pruned, want.Bounded)
		}
		rep, err := json.Marshal(explain)
		if err != nil {
			t.Fatal(err)
		}
		text, err := analyze.Render(a, "explain")
		if err != nil {
			t.Fatal(err)
		}
		if refJSON == nil {
			refJSON, refText = rep, []byte(text)
			continue
		}
		if !bytes.Equal(refJSON, rep) {
			t.Errorf("explain JSON diverged at workers=%d:\n%s\nvs the serial search:\n%s", workers, rep, refJSON)
		}
		if !bytes.Equal(refText, []byte(text)) {
			t.Errorf("explain text diverged at workers=%d:\n%s\nvs the serial search:\n%s", workers, text, refText)
		}
	}
}
