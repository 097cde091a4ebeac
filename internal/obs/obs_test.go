package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRingDropOldest(t *testing.T) {
	rec := NewRecorder(8)
	r := rec.NewRing()
	for i := 0; i < 20; i++ {
		r.Emit(KIncumbent, "", int64(i), 0, 0)
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	if got := r.Dropped(); got != 12 {
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
	if got := rec.Dropped(); got != 12 {
		t.Fatalf("recorder Dropped = %d, want 12", got)
	}
}

func TestRingNoDropUnderCapacity(t *testing.T) {
	rec := NewRecorder(16)
	r := rec.NewRing()
	for i := 0; i < 16; i++ {
		r.Emit(KPrune, "", int64(i), 0, 0)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0 at exactly capacity", r.Dropped())
	}
	r.Emit(KPrune, "", 16, 0, 0)
	if r.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1 one past capacity", r.Dropped())
	}
}

func TestRecorderCapacityRounding(t *testing.T) {
	rec := NewRecorder(100) // rounds up to 128
	r := rec.NewRing()
	for i := 0; i < 128; i++ {
		r.Emit(KDonate, "", 0, 0, 0)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0: capacity should round up to 128", r.Dropped())
	}
}

func TestMergeOrdersAcrossRings(t *testing.T) {
	rec := NewRecorder(16)
	a := rec.NewRing()
	b := rec.NewRing()
	// Interleave with forced timestamps to make ordering deterministic.
	a.Emit(KIncumbent, "", 1, 0, 0)
	b.Emit(KSteal, "", 1, 0, 0)
	a.Emit(KIncumbent, "", 2, 0, 0)
	rec.Sys(KCollapse, "sn0", 0, 3, 0)
	// Overwrite timestamps directly (single-writer rings, test-local).
	a.buf[0].T, b.buf[0].T, a.buf[1].T = 10, 20, 30
	rec.sys.buf[0].T = 25
	events := rec.Merge()
	if len(events) != 4 {
		t.Fatalf("merged %d events, want 4", len(events))
	}
	want := []int64{10, 20, 25, 30}
	for i, e := range events {
		if e.T != want[i] {
			t.Fatalf("event %d: T = %d, want %d", i, e.T, want[i])
		}
	}
	if events[2].Kind != KCollapse || events[2].Tag != "sn0" {
		t.Fatalf("sys event lost: %+v", events[2])
	}
}

func TestMergeTieBreaksByRing(t *testing.T) {
	rec := NewRecorder(4)
	a := rec.NewRing() // ring 1
	b := rec.NewRing() // ring 2
	b.Emit(KDonate, "", 0, 0, 0)
	a.Emit(KSteal, "", 0, 0, 0)
	a.buf[0].T, b.buf[0].T = 7, 7
	events := rec.Merge()
	if events[0].Ring != 1 || events[1].Ring != 2 {
		t.Fatalf("tie not broken by ring id: %+v", events)
	}
}

func TestRegistryInstruments(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("engine_steals_total")
	c.Inc()
	c.Add(4)
	if reg.Counter("engine_steals_total") != c {
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
	h := reg.Histogram("engine_deque_depth")
	for _, v := range []int64{0, 1, 2, 3, 900} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 906 {
		t.Fatalf("histogram count/sum = %d/%d, want 5/906", h.Count(), h.Sum())
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1 << 16, 16}, {1 << 60, histBuckets - 1}}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestPrometheusText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("search_cuts_considered_total").Add(42)
	reg.Gauge("engine_workers_active").Set(3)
	reg.Histogram("engine_deque_depth").Observe(5)
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
		"# TYPE isex_engine_deque_depth histogram",
		`isex_engine_deque_depth_bucket{le="8"} 1`,
		`isex_engine_deque_depth_bucket{le="+Inf"} 1`,
		"isex_engine_deque_depth_sum 5",
		"isex_engine_deque_depth_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Add(7)
	reg.Histogram("h").Observe(3)
	snap := reg.Snapshot()
	if snap["a_total"] != int64(7) {
		t.Fatalf("snapshot a_total = %v, want 7", snap["a_total"])
	}
	h, ok := snap["h"].(map[string]int64)
	if !ok || h["count"] != 1 || h["sum"] != 3 {
		t.Fatalf("snapshot h = %v", snap["h"])
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
	if p.HookOf() != nil {
		t.Fatal("nil probe HookOf must be nil")
	}
	p.Count(func(m *Metrics) *Counter { return m.Collapses })

	var o *SearchObs
	o.FlushStats(1, 2, 3, 4)
	o.Incumbent(1, 2, 3)
	o.Pruned(1)
	o.Bound(1, 2)
	o.Stop(2, false, true, false)
	o.Steal(0, 1, 2)
	o.Donate(3)
	o.Resplit(1, 2)
}

func TestProbeAttachAndMetricsOnly(t *testing.T) {
	reg := NewRegistry()
	p := &Probe{Rec: NewRecorder(16), Met: NewMetrics(reg)}
	o := p.Attach()
	if o == nil || o.ring == nil || o.met == nil {
		t.Fatal("full probe must attach ring and metrics")
	}
	mo := p.MetricsOnly()
	if mo == nil || mo.Rec != nil || mo.Met != p.Met {
		t.Fatalf("MetricsOnly must keep metrics, drop recorder: %+v", mo)
	}
	oo := mo.Attach()
	if oo == nil || oo.ring != nil {
		t.Fatal("metrics-only attach must have no ring")
	}
	// Trace-only probe with no metrics or hook collapses to nil.
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
	r := rec.NewRing()
	r.Emit(KIncumbent, "", 5120, 17, 42)
	rec.Sys(KSearchEnd, "main/entry", 0, 5120, 100)
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

func TestWriteChromeTrace(t *testing.T) {
	rec := NewRecorder(8)
	r := rec.NewRing()
	r.Emit(KSteal, "", 3, 2, 5)
	r.Emit(KIncumbent, "", 100, 7, 9)
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, rec.Merge()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("chrome trace not a JSON array: %v\n%s", err, sb.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d trace events, want 2", len(events))
	}
	e := events[0]
	if e["name"] != "steal" || e["ph"] != "i" || e["tid"] != float64(1) {
		t.Fatalf("unexpected trace event: %v", e)
	}
	args, ok := e["args"].(map[string]any)
	if !ok || args["count"] != float64(3) || args["victim"] != float64(2) {
		t.Fatalf("steal args wrong: %v", e["args"])
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
