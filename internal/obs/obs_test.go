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

func TestNilProbeSafety(t *testing.T) {
	var p *Probe
	if p.Attach() != nil {
		t.Fatal("nil probe must attach to nil")
	}
	if p.MetricsOnly() != nil {
		t.Fatal("nil probe MetricsOnly must stay nil")
	}

	var o *SearchObs
	o.Poll()
	o.Incumbent(1, 2, 3)
	o.Stop(2)
	o.Donate(3)
	o.Idle()
	o.Busy()
	o.End(1, 2)
}

func TestProbeAttachAndMetricsOnly(t *testing.T) {
	inj := injectorFunc(func(Site, string) {})
	p := &Probe{Rec: NewRecorder(16), Inj: inj}
	o := p.Attach()
	if o == nil || o.rec == nil || o.lane != 1 || o.inj == nil {
		t.Fatal("full probe must attach a recorder lane and the injector")
	}
	mo := p.MetricsOnly()
	if mo == nil || mo.Rec != nil || mo.Inj == nil {
		t.Fatalf("MetricsOnly must keep the injector, drop the recorder: %+v", mo)
	}
	oo := mo.Attach()
	if oo == nil || oo.rec != nil || oo.inj == nil {
		t.Fatal("MetricsOnly attach must have the injector and no recorder lane")
	}
	// Trace-only probe with no injector collapses to nil.
	tp := &Probe{Rec: NewRecorder(16)}
	if tp.MetricsOnly() != nil {
		t.Fatal("trace-only probe must collapse to nil under MetricsOnly")
	}
}

// injectorFunc adapts a function to the Injector interface.
type injectorFunc func(Site, string)

func (f injectorFunc) Fire(s Site, tag string) { f(s, tag) }

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
