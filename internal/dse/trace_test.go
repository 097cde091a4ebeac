package dse

import (
	"bytes"
	"context"
	"testing"

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
	probe := &obs.Probe{Rec: obs.NewRecorder(obs.DefaultRingCap)}
	opt.Probe = probe
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
}
