package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRingDropOldest(t *testing.T) {
	rec := NewRecorder(8)
	for i := 0; i < 20; i++ {
		rec.emit(1, 0, KIncumbent, "", int64(i), 0, 0)
	}
	if got := rec.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	events := rec.Merge()
	if len(events) != 8 {
		t.Fatalf("merged %d events, want 8", len(events))
	}
	// The survivors must be the newest 8 (A = 12..19) in order.
	for i, e := range events {
		if want := int64(12 + i); e.A != want {
			t.Fatalf("event %d: A = %d, want %d (oldest must drop first)", i, e.A, want)
		}
	}
}

func TestRingNoDropUnderCapacity(t *testing.T) {
	rec := NewRecorder(16)
	for i := 0; i < 16; i++ {
		rec.emit(1, 0, KDonate, "", int64(i), 0, 0)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0 at exactly capacity", rec.Dropped())
	}
	rec.emit(1, 0, KDonate, "", 16, 0, 0)
	if rec.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1 one past capacity", rec.Dropped())
	}
}

func TestRecorderCapacityRounding(t *testing.T) {
	rec := NewRecorder(100) // rounds up to 128
	for i := 0; i < 128; i++ {
		rec.emit(1, 0, KDonate, "", 0, 0, 0)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0: capacity should round up to 128", rec.Dropped())
	}
}

// TestLanesAndSpans: every Attach opens a new lane bound to the probe's
// span, searcher events carry it, coordinator events ride lane 0, and
// lane_end reports the totals it is given — all in one time-ordered
// buffer.
func TestLanesAndSpans(t *testing.T) {
	p := (&Probe{Rec: NewRecorder(16)}).Sub()
	a, b := p.Attach(), p.Attach()
	a.Incumbent(5, 1, 2)
	p.Collapse("sn0", 1, 3)
	b.Idle()
	b.Busy()
	b.End(7, 2)
	events := p.Rec.Merge()
	if len(events) != 3 {
		t.Fatalf("merged %d events, want 3", len(events))
	}
	for i, want := range []struct {
		lane int32
		kind Kind
	}{{1, KIncumbent}, {0, KCollapse}, {2, KLaneEnd}} {
		e := events[i]
		if e.Lane != want.lane || e.Kind != want.kind || e.Span != p.span {
			t.Fatalf("event %d = %+v, want lane %d kind %v span %d", i, e, want.lane, want.kind, p.span)
		}
		if i > 0 && e.T < events[i-1].T {
			t.Fatalf("event %d at %d before event %d at %d", i, e.T, i-1, events[i-1].T)
		}
	}
	if e := events[2]; e.A != 7 || e.B != 2 || e.C < 0 {
		t.Fatalf("lane_end = %+v, want pruned 7, bounded 2, active >= 0", e)
	}
}

func TestRegistryInstruments(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("engine_donations_total")
	c.Inc()
	c.Add(4)
	if reg.Counter("engine_donations_total") != c {
		t.Fatal("Counter lookup must return the same instrument")
	}
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := reg.Gauge("engine_workers_active")
	g.Set(8)
	g.Add(-3)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestPrometheusText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("search_cuts_considered_total").Add(42)
	reg.Gauge("engine_workers_active").Set(3)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE isex_search_cuts_considered_total counter",
		"isex_search_cuts_considered_total 42",
		"# TYPE isex_engine_workers_active gauge",
		"isex_engine_workers_active 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Add(7)
	reg.Gauge("g").Set(-2)
	snap := reg.Snapshot()
	if snap["a_total"] != int64(7) || snap["g"] != int64(-2) {
		t.Fatalf("snapshot = %v, want a_total 7 and g -2", snap)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot must marshal: %v", err)
	}
}

func TestNilProbeSafety(t *testing.T) {
	var p *Probe
	if p.Attach() != nil {
		t.Fatal("nil probe must attach to nil")
	}
	if p.MetricsOnly() != nil {
		t.Fatal("nil probe MetricsOnly must stay nil")
	}
	p.Count(func(m *Metrics) *Counter { return m.Collapses })

	var o *SearchObs
	o.FlushStats(1, 2, 3, 4)
	o.Incumbent(1, 2, 3)
	o.Stop(2, false, true, false)
	o.Donate(3)
	o.Idle()
	o.Busy()
	o.End(1, 2)
}

func TestProbeAttachAndMetricsOnly(t *testing.T) {
	reg := NewRegistry()
	p := &Probe{Rec: NewRecorder(16), Met: NewMetrics(reg)}
	o := p.Attach()
	if o == nil || o.rec == nil || o.lane != 1 || o.met == nil {
		t.Fatal("full probe must attach a recorder lane and metrics")
	}
	mo := p.MetricsOnly()
	if mo == nil || mo.Rec != nil || mo.Met != p.Met {
		t.Fatalf("MetricsOnly must keep metrics, drop recorder: %+v", mo)
	}
	oo := mo.Attach()
	if oo == nil || oo.rec != nil {
		t.Fatal("metrics-only attach must have no recorder lane")
	}
	// Trace-only probe with no metrics or injector collapses to nil.
	tp := &Probe{Rec: NewRecorder(16)}
	if tp.MetricsOnly() != nil {
		t.Fatal("trace-only probe must collapse to nil under MetricsOnly")
	}
}

func TestFlushStatsDeltas(t *testing.T) {
	reg := NewRegistry()
	p := &Probe{Met: NewMetrics(reg)}
	o := p.Attach()
	o.FlushStats(10, 4, 6, 1)
	o.FlushStats(25, 9, 16, 1) // +15, +5, +10, +0
	m := p.Met
	if m.CutsConsidered.Value() != 25 || m.CutsPassed.Value() != 9 ||
		m.CutsPruned.Value() != 16 || m.BoundCutoffs.Value() != 1 {
		t.Fatalf("flushed totals = %d/%d/%d/%d, want 25/9/16/1",
			m.CutsConsidered.Value(), m.CutsPassed.Value(),
			m.CutsPruned.Value(), m.BoundCutoffs.Value())
	}
	// A second searcher flushing its own totals adds, not overwrites.
	o2 := p.Attach()
	o2.FlushStats(5, 1, 4, 0)
	if m.CutsConsidered.Value() != 30 {
		t.Fatalf("second searcher flush: considered = %d, want 30", m.CutsConsidered.Value())
	}
}

func TestWriteJSONL(t *testing.T) {
	rec := NewRecorder(8)
	rec.emit(1, 0, KIncumbent, "", 5120, 17, 42)
	rec.emit(0, 0, KSearchEnd, "main/entry", 0, 5120, 100)
	var sb strings.Builder
	if err := WriteJSONL(&sb, rec.Merge()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), sb.String())
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q not valid JSON: %v", line, err)
		}
	}
	if !strings.Contains(sb.String(), `"kind":"incumbent"`) ||
		!strings.Contains(sb.String(), `"tag":"main/entry"`) {
		t.Fatalf("JSONL missing expected fields:\n%s", sb.String())
	}
}

func TestKindStrings(t *testing.T) {
	for k := 0; k < kindCount; k++ {
		if s := Kind(k).String(); s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("Kind(%d) has no name", k)
		}
	}
	if s := Kind(200).String(); s != "kind(200)" {
		t.Errorf("unknown kind string = %q", s)
	}
}
