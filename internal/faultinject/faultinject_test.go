package faultinject

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"isex/internal/obs"
)

func TestDueSemantics(t *testing.T) {
	cases := []struct {
		rule Rule
		hits []int64
		want []bool
	}{
		{Rule{}, []int64{1, 2, 3}, []bool{true, false, false}},
		{Rule{Nth: 3}, []int64{1, 2, 3, 4}, []bool{false, false, true, false}},
		{Rule{Nth: 2, Period: 2}, []int64{1, 2, 3, 4, 5, 6}, []bool{false, true, false, true, false, true}},
		{Rule{Nth: -5}, []int64{1, 2}, []bool{true, false}},
	}
	for _, c := range cases {
		for i, h := range c.hits {
			if got := due(&c.rule, h); got != c.want[i] {
				t.Errorf("due(%v, %d) = %v, want %v", c.rule, h, got, c.want[i])
			}
		}
	}
}

func TestPanicRuleFiresThroughProbe(t *testing.T) {
	in := New(Rule{Site: obs.SiteSearchBegin, Action: ActPanic})
	p := &obs.Probe{Inj: in}
	var rec any
	func() {
		defer func() { rec = recover() }()
		p.SearchBegin("f/b", 4, 0)
	}()
	f, ok := rec.(*Fault)
	if !ok {
		t.Fatalf("recovered %T (%v), want *Fault", rec, rec)
	}
	if f.Hit != 1 || f.Tag != "f/b" {
		t.Errorf("fault = %+v, want hit 1 tag f/b", f)
	}
	if n := in.FiredCount(); n != 1 {
		t.Errorf("FiredCount = %d, want 1", n)
	}
	// The one-shot rule must not fire again.
	p.SearchBegin("f/b", 4, 0)
	if n := in.FiredCount(); n != 1 {
		t.Errorf("FiredCount after second hit = %d, want 1", n)
	}
	if h := in.Hits(0); h != 2 {
		t.Errorf("Hits(0) = %d, want 2", h)
	}
}

func TestTagFilter(t *testing.T) {
	in := New(Rule{Site: obs.SiteSearchBegin, Tag: "hot", Action: ActDelay, Delay: time.Microsecond})
	p := &obs.Probe{Inj: in}
	p.SearchBegin("f/cold", 1, 0)
	if n := in.FiredCount(); n != 0 {
		t.Fatalf("rule fired for non-matching tag: %v", in.Fired())
	}
	p.SearchBegin("f/hotloop", 1, 0)
	if n := in.FiredCount(); n != 1 {
		t.Fatalf("FiredCount = %d, want 1", n)
	}
}

func TestFuseDeadline(t *testing.T) {
	in := New(Rule{Site: obs.SitePoll, Nth: 2, Action: ActDeadline})
	ctx, cancel := in.Context(context.Background())
	defer cancel()
	if ctx.Err() != nil {
		t.Fatalf("fresh fuse already tripped: %v", ctx.Err())
	}
	in.Fire(obs.SitePoll, "")
	if ctx.Err() != nil {
		t.Fatalf("fuse tripped before Nth: %v", ctx.Err())
	}
	in.Fire(obs.SitePoll, "")
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("ctx.Err() = %v, want DeadlineExceeded", ctx.Err())
	}
	select {
	case <-ctx.Done():
	default:
		t.Fatal("Done() not closed after trip")
	}
	cancel() // must not panic, must not change the error
	cancel()
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("ctx.Err() after cancel = %v, want DeadlineExceeded", ctx.Err())
	}
}

func TestFuseFollowsParent(t *testing.T) {
	in := New()
	parent, pcancel := context.WithCancel(context.Background())
	ctx, cancel := in.Context(parent)
	defer cancel()
	pcancel()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("fuse did not follow parent cancellation")
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("ctx.Err() = %v, want Canceled", ctx.Err())
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	a := RandomPlan(42, 16)
	b := RandomPlan(42, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := RandomPlan(43, 16)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans (suspicious)")
	}
	for _, r := range a {
		if r.Nth < 1 {
			t.Errorf("rule %v has Nth < 1", r)
		}
		if r.Action == ActDelay && (r.Delay <= 0 || r.Delay > 5*time.Millisecond) {
			t.Errorf("rule %v has out-of-range delay", r)
		}
		if r.Action == ActDelay && r.Period != 0 {
			t.Errorf("delay rule %v re-fires", r)
		}
	}
}
