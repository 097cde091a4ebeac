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
// concurrent tasks share ONE recorder, and that must be race-clean
// (run under -race in CI) without corrupting lane ownership. The
// invariants checked here are exactly the ones interleaved writers
// would break: every searcher lane belongs to exactly one block-search
// span and closes with one lane_end, timestamps are monotone across the
// buffer, nothing is dropped, and the observed sweep is byte-identical
// to an unobserved one.
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

	events := probe.Rec.Merge()
	if len(events) == 0 {
		t.Fatal("sweep under a tracing probe recorded nothing")
	}
	if n := probe.Rec.Dropped(); n != 0 {
		t.Fatalf("recorder dropped %d events", n)
	}
	// Lane ownership: a searcher lane serves exactly one (block search,
	// worker) pair, so all its events carry one span, and it closes
	// once. Lane 0 is the shared coordinator channel by design.
	laneSpan := map[int32]int64{}
	laneEnds := map[int32]int{}
	for i, e := range events {
		if i > 0 && e.T < events[i-1].T {
			t.Fatalf("event %d at %d before event %d at %d: the buffer is out of time order", i, e.T, i-1, events[i-1].T)
		}
		if e.Lane == 0 {
			continue
		}
		if span, ok := laneSpan[e.Lane]; ok && span != e.Span {
			t.Fatalf("lane %d carries spans %d and %d: lane ownership broken under sweep fan-out", e.Lane, span, e.Span)
		}
		laneSpan[e.Lane] = e.Span
		if e.Kind == obs.KLaneEnd {
			laneEnds[e.Lane]++
		}
	}
	for lane := range laneSpan {
		if laneEnds[lane] != 1 {
			t.Fatalf("lane %d closed %d times, want once", lane, laneEnds[lane])
		}
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

	adpcm42 := cellKey{"adpcm/paper", 4, 2, 3}
	adpcm21 := cellKey{"adpcm/paper", 2, 1, 3}
	fir42 := cellKey{"fir/paper", 4, 2, 3}
	p.begin("warm", []cellKey{adpcm42, adpcm21, fir42})

	snap := p.Snapshot()
	if snap.Total != 3 || snap.Done != 0 || snap.Mode != "warm" {
		t.Fatalf("fresh snapshot: %+v", snap)
	}
	for _, c := range snap.Cells {
		if c.State != "queued" {
			t.Fatalf("cell %+v not queued", c)
		}
	}

	p.cellStart(adpcm42)
	p.live(adpcm42, obs.Event{Kind: obs.KSearchStart, Tag: "f/hot"})
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

	p.live(adpcm42, obs.Event{Kind: obs.KRescue})
	p.live(adpcm42, obs.Event{Kind: obs.KSearchEnd})
	p.cellDone(adpcm42, 77)
	snap = p.Snapshot()
	if snap.Done != 1 {
		t.Fatalf("done=%d want 1", snap.Done)
	}
	// One cell took 2s and two remain, but no cell is searching, so the
	// ETA divides by max(searching, 1) = 1.
	if snap.ETAMS != 4000 {
		t.Fatalf("eta=%dms want 4000", snap.ETAMS)
	}

	p.cellStart(fir42)
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

	// Events for a cell that is not searching are dropped, not
	// misattributed.
	p.live(adpcm42, obs.Event{Kind: obs.KSearchStart, Tag: "ghost"})
	p.live(adpcm21, obs.Event{Kind: obs.KSearchStart, Tag: "ghost"})
	for _, c := range p.Snapshot().Cells {
		if c.Block == "ghost" {
			t.Fatal("event without a searching cell was misattributed")
		}
	}

	// Two constraint groups of one chain search at once: each cell keeps
	// its own block, rung and search count, Render shows both, and the
	// ETA shares the remaining work among the searching cells.
	fir84, fir21 := cellKey{"fir/paper", 8, 4, 3}, cellKey{"fir/paper", 2, 1, 3}
	q := NewProgress()
	q.Now = func() time.Time { return now }
	q.begin("warm", []cellKey{fir84, fir42, fir21})
	q.cellStart(fir84)
	now = now.Add(3 * time.Second)
	q.cellDone(fir84, 9)
	q.cellStart(fir42)
	q.cellStart(fir21)
	q.live(fir42, obs.Event{Kind: obs.KSearchStart, Tag: "f/big"})
	q.live(fir42, obs.Event{Kind: obs.KRescue})
	q.live(fir21, obs.Event{Kind: obs.KSearchStart, Tag: "f/a"})
	q.live(fir21, obs.Event{Kind: obs.KSearchEnd})
	q.live(fir21, obs.Event{Kind: obs.KSearchStart, Tag: "f/b"})
	snap = q.Snapshot()
	got := map[cellKey]CellProgress{}
	for _, c := range snap.Cells {
		got[cellKey{c.Chain, c.Nin, c.Nout, c.Ninstr}] = c
	}
	if c := got[fir42]; c.State != "searching" || c.Block != "f/big" || c.Rung != "rescue" || c.Searches != 0 {
		t.Errorf("fir 4/2 cell: %+v", c)
	}
	if c := got[fir21]; c.State != "searching" || c.Block != "f/b" || c.Rung != "" || c.Searches != 1 {
		t.Errorf("fir 2/1 cell: %+v", c)
	}
	// 3s per cell, two cells left, two searching.
	if snap.ETAMS != 3000 {
		t.Errorf("eta=%dms want 3000 with two cells searching", snap.ETAMS)
	}
	sb.Reset()
	q.Render(&sb)
	want := "fir/paper: 1/3 done[(8,4)=9] searching (4,2) block f/big [rescue] 0 searches, (2,1) block f/b 1 searches"
	if !strings.Contains(sb.String(), want) {
		t.Errorf("render missing %q:\n%s", want, sb.String())
	}
}
