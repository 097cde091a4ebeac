// Package faultinject is a deterministic, seeded fault-injection layer
// for the search pipeline. It piggybacks on the obs.Probe site hooks
// that already exist in every search layer (obs.Injector) instead of
// adding instrumentation of its own: an Injector is attached to a
// probe, observes every probe site firing, and injects faults — panics,
// delays, context cancellations, deadline trips — according to a
// reproducible schedule (a list of Rules, optionally generated from a
// seed by RandomPlan).
//
// Determinism contract: given the same schedule and a serial search,
// the same faults fire at the same hit counts every run. Under a
// parallel search the *set* of matching sites is still deterministic
// per goroutine-local counter stream, but interleaving decides which
// worker trips a shared rule first — which is exactly the
// nondeterminism chaos tests exist to explore; the schedule (seed)
// pins everything else so a failure reproduces.
package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"isex/internal/obs"
)

// Action is the kind of fault a Rule injects when it fires.
type Action uint8

const (
	// ActPanic panics with a *Fault from inside the probe call; the
	// search layers' recovery paths (subproblem guards, block guards)
	// handle it.
	ActPanic Action = iota
	// ActDelay sleeps for Rule.Delay inside the probe call, simulating
	// a stalled worker or a slow allocation.
	ActDelay
	// ActCancel trips every context minted by Injector.Context with
	// context.Canceled.
	ActCancel
	// ActDeadline trips every context minted by Injector.Context with
	// context.DeadlineExceeded.
	ActDeadline

	actionCount = int(ActDeadline) + 1
)

var actionNames = [actionCount]string{
	ActPanic:    "panic",
	ActDelay:    "delay",
	ActCancel:   "cancel",
	ActDeadline: "deadline",
}

func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Rule is one entry of a fault schedule: at which probe site, after how
// many matching hits, which fault. The zero Nth/Period mean "first
// matching hit, once".
type Rule struct {
	// Site selects the probe site class the rule watches.
	Site obs.Site
	// Tag, when non-empty, further restricts the rule to site firings
	// whose tag contains it as a substring (tags are "fn/block" for
	// block-scoped sites, "" for searcher-local ones — which only an
	// empty Tag matches).
	Tag string
	// Nth is the 1-based matching-hit index at which the rule first
	// fires; values below 1 mean the first hit.
	Nth int64
	// Period, when positive, re-fires the rule every Period matching
	// hits after Nth; 0 fires exactly once.
	Period int64
	// Action is the fault to inject.
	Action Action
	// Delay is the sleep duration for ActDelay (default 1ms when zero).
	Delay time.Duration
}

func (r Rule) String() string {
	s := fmt.Sprintf("%s@%s", r.Action, r.Site)
	if r.Tag != "" {
		s += fmt.Sprintf("[%q]", r.Tag)
	}
	nth := r.Nth
	if nth < 1 {
		nth = 1
	}
	s += fmt.Sprintf("#%d", nth)
	if r.Period > 0 {
		s += fmt.Sprintf("+%d*", r.Period)
	}
	return s
}

// Fault is the value an ActPanic rule panics with. It implements error
// so recovery paths render it legibly.
type Fault struct {
	Rule Rule
	Hit  int64
	Tag  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: injected panic %v at hit %d (tag %q)", f.Rule, f.Hit, f.Tag)
}

// Firing is one log entry of a fault that actually fired.
type Firing struct {
	RuleIndex int
	Site      obs.Site
	Tag       string
	Hit       int64
	Action    Action
}

type ruleState struct {
	Rule
	hits atomic.Int64
}

// Injector executes a fault schedule. It implements obs.Injector; wire
// it into a probe with obs.Probe{Inj: inj}. Safe for concurrent use.
type Injector struct {
	rules []*ruleState

	mu    sync.Mutex
	log   []Firing
	fuses []*fuseCtx
}

var _ obs.Injector = (*Injector)(nil)

// New builds an injector for the given schedule. The rule list is fixed
// for the injector's lifetime.
func New(rules ...Rule) *Injector {
	in := &Injector{rules: make([]*ruleState, len(rules))}
	for i, r := range rules {
		in.rules[i] = &ruleState{Rule: r}
	}
	return in
}

// Fire implements obs.Injector: count the hit against every matching
// rule and execute the ones that come due. An ActPanic rule panics out
// of this call (through the probe, into the search's recovery path).
func (in *Injector) Fire(site obs.Site, tag string) {
	if in == nil {
		return
	}
	for i, r := range in.rules {
		if r.Site != site {
			continue
		}
		if r.Tag != "" && !strings.Contains(tag, r.Tag) {
			continue
		}
		h := r.hits.Add(1)
		if !due(&r.Rule, h) {
			continue
		}
		in.mu.Lock()
		in.log = append(in.log, Firing{RuleIndex: i, Site: site, Tag: tag, Hit: h, Action: r.Action})
		in.mu.Unlock()
		in.execute(&r.Rule, h, tag)
	}
}

func due(r *Rule, hit int64) bool {
	nth := r.Nth
	if nth < 1 {
		nth = 1
	}
	if hit < nth {
		return false
	}
	if hit == nth {
		return true
	}
	return r.Period > 0 && (hit-nth)%r.Period == 0
}

func (in *Injector) execute(r *Rule, hit int64, tag string) {
	switch r.Action {
	case ActPanic:
		panic(&Fault{Rule: *r, Hit: hit, Tag: tag})
	case ActDelay:
		d := r.Delay
		if d <= 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
	case ActCancel:
		in.trip(context.Canceled)
	case ActDeadline:
		in.trip(context.DeadlineExceeded)
	}
}

// Fired returns a copy of the log of faults that actually fired, in
// firing order.
func (in *Injector) Fired() []Firing {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Firing(nil), in.log...)
}

// FiredCount returns how many faults have fired so far.
func (in *Injector) FiredCount() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.log)
}

// Hits returns the matching-hit count rule i has accumulated (fired or
// not); useful for asserting a site class was actually exercised.
func (in *Injector) Hits(i int) int64 {
	if i < 0 || i >= len(in.rules) {
		return 0
	}
	return in.rules[i].hits.Load()
}

// RandomPlan derives a reproducible fault schedule of n rules from
// seed. Sites, actions, hit indices and periods are drawn from ranges
// chosen so that typical block searches actually reach them: hit
// indices are small for rare sites (search begin/end, rescue) and
// larger for per-poll/per-prune sites. Delays stay in the microsecond
// range and fire once (Period 0), so schedules never turn into sleeps
// that dominate a test run.
func RandomPlan(seed int64, n int) []Rule {
	rng := rand.New(rand.NewSource(seed))
	// Weighted site pool: hot sites appear more often because they are
	// where faults have the most interleavings to explore.
	pool := []obs.Site{
		obs.SitePoll, obs.SitePoll, obs.SitePoll,
		obs.SitePrune, obs.SitePrune,
		obs.SiteIncumbent, obs.SiteIncumbent,
		obs.SiteSearchBegin, obs.SiteSearchEnd,
		obs.SiteStop, obs.SiteSteal, obs.SiteDonate, obs.SiteResplit,
		obs.SiteWarmSeed, obs.SiteRescue, obs.SiteGreedy,
		obs.SiteCollapse,
	}
	rules := make([]Rule, 0, n)
	for i := 0; i < n; i++ {
		site := pool[rng.Intn(len(pool))]
		r := Rule{Site: site}
		switch site {
		case obs.SitePoll, obs.SitePrune, obs.SiteIncumbent:
			r.Nth = 1 + rng.Int63n(256)
		default:
			r.Nth = 1 + rng.Int63n(4)
		}
		if rng.Intn(4) == 0 {
			r.Period = 1 + rng.Int63n(64)
		}
		switch rng.Intn(8) {
		case 0:
			r.Action = ActCancel
		case 1:
			r.Action = ActDeadline
		case 2, 3:
			r.Action = ActDelay
			r.Delay = time.Duration(1+rng.Intn(200)) * 10 * time.Microsecond
			// A delay fires once: re-fired at a per-prune or per-poll
			// site it would sleep thousands of times in one search.
			r.Period = 0
		default:
			r.Action = ActPanic
		}
		rules = append(rules, r)
	}
	return rules
}
