package dse

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"isex/internal/obs"
	"isex/internal/obs/analyze"
)

// TestSweepTraceRaceClean is the -trace + -sweep regression: all
// concurrent chains share ONE recorder, and that must be race-clean
// (run under -race in CI) without corrupting ring ownership. The
// invariants checked here are exactly the ones interleaved-ring
// corruption would break: every searcher ring belongs to exactly one
// block-search span, timestamps are monotone within a ring, and the
// observed sweep is byte-identical to an unobserved one.
func TestSweepTraceRaceClean(t *testing.T) {
	bare, _, err := Sweep(context.Background(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	bareBytes, err := bare.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	opt := testOptions()
	opt.Workers = 4
	probe := &obs.Probe{
		Rec: obs.NewRecorder(obs.DefaultRingCap),
		Met: obs.NewMetrics(obs.NewRegistry()),
	}
	opt.Probe = probe
	opt.Progress = NewProgress()
	rep, _, err := Sweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	repBytes, err := rep.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bareBytes, repBytes) {
		t.Fatalf("observed sweep diverged from unobserved sweep:\n%s\nvs\n%s", repBytes, bareBytes)
	}
	if n := probe.Met.PoolLeaks.Value(); n != 0 {
		t.Fatalf("sweep admission pool leaked %d slots", n)
	}

	events := probe.Rec.Merge()
	if len(events) == 0 {
		t.Fatal("sweep under a tracing probe recorded nothing")
	}
	// Ring ownership: a searcher ring serves exactly one (block search,
	// worker) pair, so all its surviving events carry one span. The sys
	// ring (0) is the shared multi-span channel by design.
	ringSpan := map[int32]int64{}
	ringLastT := map[int32]int64{}
	for _, e := range events {
		if last, ok := ringLastT[e.Ring]; ok && e.T < last {
			t.Fatalf("ring %d time went backwards (%d after %d): interleaved-ring corruption", e.Ring, e.T, last)
		}
		ringLastT[e.Ring] = e.T
		if e.Ring == 0 {
			continue
		}
		if span, ok := ringSpan[e.Ring]; ok && span != e.Span {
			t.Fatalf("ring %d carries spans %d and %d: ring ownership broken under sweep fan-out", e.Ring, span, e.Span)
		}
		ringSpan[e.Ring] = e.Span
	}

	// The span tree must lift cleanly: every cell of the warm grid opens
	// one cell span, and every recorded stage hangs off a cell.
	a := analyze.Build(events)
	wantCells := len(opt.Benchmarks) * len(opt.Targets) * len(opt.Constraints)
	if len(a.Cells) != wantCells {
		t.Fatalf("analyzer saw %d cell spans, want %d", len(a.Cells), wantCells)
	}
	if len(a.TopStages) != 0 {
		t.Fatalf("%d stages escaped their cell spans", len(a.TopStages))
	}
	for _, c := range a.Cells {
		if !c.Ended {
			t.Fatalf("cell %s (%d,%d) never closed", c.Tag, c.Nin, c.Nout)
		}
		if len(c.Stages) != 1 {
			t.Fatalf("cell %s (%d,%d) has %d stages, want 1", c.Tag, c.Nin, c.Nout, len(c.Stages))
		}
	}

	// The attribution section merges into the report without touching
	// the deterministic grid.
	AttachAttribution(rep, events)
	if rep.Attribution == nil || len(rep.Attribution.Cells) != wantCells {
		t.Fatalf("AttachAttribution: got %+v", rep.Attribution)
	}

	// Live progress saw the whole grid complete.
	snap := opt.Progress.Snapshot()
	if snap.Done != snap.Total || snap.Total != wantCells {
		t.Fatalf("progress done=%d total=%d, want %d/%d", snap.Done, snap.Total, wantCells, wantCells)
	}
	for _, c := range snap.Cells {
		if c.State != "done" {
			t.Fatalf("cell %s (%d,%d) stuck in %q", c.Chain, c.Nin, c.Nout, c.State)
		}
	}
}

// TestProgressTracker drives the live tracker through a scripted sweep
// with an injected clock and pins the snapshot and terminal rendering.
func TestProgressTracker(t *testing.T) {
	now := time.Unix(0, 0)
	p := NewProgress()
	p.Now = func() time.Time { return now }

	keys := []cellKey{
		{"adpcm/paper", 4, 2, 3},
		{"adpcm/paper", 2, 1, 3},
		{"fir/paper", 4, 2, 3},
	}
	p.begin("warm", keys)

	snap := p.Snapshot()
	if snap.Total != 3 || snap.Done != 0 || snap.Mode != "warm" {
		t.Fatalf("fresh snapshot: %+v", snap)
	}
	for _, c := range snap.Cells {
		if c.State != "queued" {
			t.Fatalf("cell %+v not queued", c)
		}
	}

	p.cellStart("adpcm/paper", 4, 2, 3)
	p.live("adpcm/paper", obs.Event{Kind: obs.KSearchStart, Tag: "f/hot"})
	now = now.Add(2 * time.Second)
	snap = p.Snapshot()
	var cur *CellProgress
	for i := range snap.Cells {
		if snap.Cells[i].State == "searching" {
			cur = &snap.Cells[i]
		}
	}
	if cur == nil || cur.Block != "f/hot" || cur.ElapsedMS != 2000 {
		t.Fatalf("searching cell: %+v", cur)
	}

	p.live("adpcm/paper", obs.Event{Kind: obs.KRescue})
	p.live("adpcm/paper", obs.Event{Kind: obs.KSearchEnd})
	p.cellDone("adpcm/paper", 4, 2, 3, 77)
	snap = p.Snapshot()
	if snap.Done != 1 {
		t.Fatalf("done=%d want 1", snap.Done)
	}
	// One cell took 2s; two remain on one active chain — but no chain is
	// currently searching, so the ETA divides by max(active, 1) = 1.
	if snap.ETAMS != 4000 {
		t.Fatalf("eta=%dms want 4000", snap.ETAMS)
	}

	p.cellStart("fir/paper", 4, 2, 3)
	var sb strings.Builder
	p.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"sweep warm: 1/3 cells done",
		"adpcm/paper: 1/2 done[(4,2)=77]",
		"fir/paper: 0/1 searching (4,2)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	// Events for chains with no searching cell are dropped, not
	// misattributed.
	p.live("adpcm/paper", obs.Event{Kind: obs.KSearchStart, Tag: "ghost"})
	for _, c := range p.Snapshot().Cells {
		if c.Block == "ghost" {
			t.Fatal("event without a searching cell was misattributed")
		}
	}
}
