package obs

import (
	"sync/atomic"
	"time"
)

// spanCounter allocates process-unique causal-span IDs. Span 0 is
// reserved for "unscoped"; the first allocated span is 1.
var spanCounter atomic.Int64

// NextSpan allocates a fresh causal-span ID. Span IDs are process-unique
// and allocation-order dependent (they encode *relations*, not stable
// identities): deterministic artifacts must never expose raw IDs.
func NextSpan() int64 { return spanCounter.Add(1) }

// Probe is the observability handle carried in core.Config. A nil
// *Probe means observability is off and every probe point reduces to
// one nil check. Either field may be set: Rec enables the flight
// recorder, Inj is the fault-injection seam.
type Probe struct {
	// Rec, when non-nil, records the event timeline.
	Rec *Recorder
	// Inj, when non-nil, fires at the head of every probe method with
	// the method's Site, before any recorder work — so a fault injector
	// observes every site even with the recorder off.
	Inj Injector

	// span is the causal span the probe's block-scoped events belong to;
	// parent is the enclosing span (stage or cell). Both ride probe
	// copies (Sub, BeginStage, BeginCell) so no probe call-site signature
	// had to change and a shared probe is never mutated.
	span, parent int64
}

// fire dispatches a site to the injector, nil-safe on both levels.
func (p *Probe) fire(s Site, tag string) {
	if p == nil || p.Inj == nil {
		return
	}
	p.Inj.Fire(s, tag)
}

// sysEmit records a coordinator-side event stamped with the probe's
// span. Callers gate on p != nil.
func (p *Probe) sysEmit(k Kind, tag string, a, b, c int64) {
	if p.Rec != nil {
		p.Rec.emit(0, p.span, k, tag, a, b, c)
	}
}

// Sub returns a copy of the probe bound to a freshly allocated span
// whose parent is the probe's current span. The block-search wrappers
// call it once per search — span allocation is one atomic add, far off
// the per-cut hot path. Nil-safe.
func (p *Probe) Sub() *Probe {
	if p == nil {
		return nil
	}
	q := *p
	q.parent = p.span
	q.span = NextSpan()
	return &q
}

// MetricsOnly returns a copy of the probe that drops the flight
// recorder and keeps the injector. Sub-searches that must not open
// lanes of their own (the windowed heuristic's windows) run under it,
// so an injector still sees their sites. Nil-safe; returns nil when no
// injector is attached.
func (p *Probe) MetricsOnly() *Probe {
	if p == nil || p.Inj == nil {
		return nil
	}
	q := *p
	q.Rec = nil
	return &q
}

// Attach binds a new searcher goroutine to the probe, handing it a
// fresh lane id: its events carry that lane and the probe's span (one
// lane per (block search, worker), so the binding is exact). Returns nil
// when the probe is nil or fully disabled, so searchers keep a single
// `s.obs != nil` gate.
func (p *Probe) Attach() *SearchObs {
	if p == nil || (p.Rec == nil && p.Inj == nil) {
		return nil
	}
	o := &SearchObs{inj: p.Inj}
	if p.Rec != nil {
		o.rec, o.lane, o.span, o.start = p.Rec, p.Rec.newLane(), p.span, time.Now()
	}
	return o
}

// SearchBegin records a panic-guarded block search starting. Tag is
// "fn/block"; ops and workers describe the searched graph and engine.
// The event carries the probe's span and, in the C slot, its parent —
// the link the analyzer lifts into the stage/cell → block tree.
func (p *Probe) SearchBegin(tag string, ops, workers int) {
	if p == nil {
		return
	}
	p.fire(SiteSearchBegin, tag)
	p.sysEmit(KSearchStart, tag, int64(ops), int64(workers), p.parent)
}

// SearchEnd records a block search ending with the given status code,
// merit (-1 when nothing was found) and cuts-considered tally.
func (p *Probe) SearchEnd(tag string, status, merit, cuts int64) {
	if p == nil {
		return
	}
	p.fire(SiteSearchEnd, tag)
	p.sysEmit(KSearchEnd, tag, status, merit, cuts)
}

// Rescue records a §9 windowed rescue attempt after a budget or
// deadline trip, with whether it found a cut, at what merit, and how
// many cuts it examined.
func (p *Probe) Rescue(tag string, found bool, merit, cuts int64) {
	if p == nil {
		return
	}
	p.fire(SiteRescue, tag)
	var f int64
	if found {
		f = 1
	}
	p.sysEmit(KRescue, tag, f, merit, cuts)
}

// Collapse records a selection-round winner collapse: tag is the
// super-node name, round the selection round, cutSize the collapsed
// cut's node count.
func (p *Probe) Collapse(tag string, round, cutSize int) {
	if p == nil {
		return
	}
	p.fire(SiteCollapse, tag)
	p.sysEmit(KCollapse, tag, int64(round), int64(cutSize), 0)
}

// Panic records a recovered panic. Tag is "fn/block" (or a worker
// label); msg is the panic message, already truncated by the caller;
// attempt is the retry attempt the panic was recovered on (0 for the
// block-level guard). No site fires here: the reporting of a fault must
// not itself be a fault-injection point, or a panic-action rule would
// recurse through its own recovery path.
func (p *Probe) Panic(tag, msg string, attempt int) {
	if p == nil {
		return
	}
	p.sysEmit(KPanic, tag+": "+msg, int64(attempt), 0, 0)
}

// Greedy records a greedy last-resort rescue attempt (the bottom rung
// of the degradation ladder) with whether it produced a cut, at what
// merit, and how many baseline candidates it screened.
func (p *Probe) Greedy(tag string, found bool, merit, cands int64) {
	if p == nil {
		return
	}
	p.fire(SiteGreedy, tag)
	var f int64
	if found {
		f = 1
	}
	p.sysEmit(KGreedy, tag, f, merit, cands)
}

// BeginStage opens a selection-stage span: one per selection-driver
// invocation. Tag is the driver name ("select/iterative",
// "select/optimal"); ninstr the instruction budget. Returns a probe copy
// bound to the stage span — block searches run with it link to the stage
// as their parent. Nil-safe (returns nil, and EndStage on nil is a
// no-op), so drivers thread it unconditionally.
func (p *Probe) BeginStage(tag string, ninstr int) *Probe {
	if p == nil {
		return nil
	}
	p.fire(SiteStage, tag)
	q := *p
	q.parent = p.span
	q.span = NextSpan()
	q.sysEmit(KStageStart, tag, q.parent, int64(ninstr), 0)
	return &q
}

// EndStage closes a stage span opened by BeginStage, reporting what the
// driver selected: the instruction count, total merit, and consumed
// identification calls.
func (p *Probe) EndStage(tag string, selected int, totalMerit int64, identCalls int) {
	if p == nil {
		return
	}
	p.fire(SiteStage, tag)
	p.sysEmit(KStageEnd, tag, int64(selected), totalMerit, int64(identCalls))
}

// BeginCell opens a DSE-cell span: one per selection task of a sweep.
// Tag is "benchmark/target"; nin/nout the port constraints and
// ninstr the group's maximum instruction budget. Returns a probe copy
// bound to the cell span, exactly like BeginStage.
func (p *Probe) BeginCell(tag string, nin, nout, ninstr int) *Probe {
	if p == nil {
		return nil
	}
	p.fire(SiteCell, tag)
	q := *p
	q.parent = p.span
	q.span = NextSpan()
	q.sysEmit(KCellStart, tag, int64(nin), int64(nout), int64(ninstr))
	return &q
}

// EndCell closes a cell span opened by BeginCell with the group's
// selection outcome.
func (p *Probe) EndCell(tag string, nin, nout int, totalMerit int64) {
	if p == nil {
		return
	}
	p.fire(SiteCell, tag)
	p.sysEmit(KCellEnd, tag, int64(nin), int64(nout), totalMerit)
}

// SearchObs is one searcher goroutine's view of the probe: its lane in
// the recorder (rec is nil under MetricsOnly) and the injector.
type SearchObs struct {
	rec  *Recorder
	lane int32
	span int64
	inj  Injector

	// start is when the lane was attached; idle sums its waits for work
	// (Idle to Busy), and idleAt is when the current wait began.
	start  time.Time
	idle   time.Duration
	idleAt time.Time
}

// fire dispatches a searcher-local site to the injector, nil-safe.
func (o *SearchObs) fire(s Site) {
	if o == nil || o.inj == nil {
		return
	}
	o.inj.Fire(s, "")
}

// emit records an event on the searcher's lane. Callers gate on
// o.rec != nil.
func (o *SearchObs) emit(k Kind, a, b, c int64) {
	o.rec.emit(o.lane, o.span, k, "", a, b, c)
}

// Poll fires SitePoll: at the searcher's poll cadence, and once more
// when it stops and when it ends.
func (o *SearchObs) Poll() {
	o.fire(SitePoll)
}

// Incumbent records an incumbent improvement to merit at node rank,
// after cuts considered cuts.
func (o *SearchObs) Incumbent(merit, cuts int64, rank int) {
	if o == nil {
		return
	}
	o.fire(SiteIncumbent)
	if o.rec != nil {
		o.emit(KIncumbent, merit, cuts, int64(rank))
	}
}

// Stop records the searcher observing stop condition status (the
// core.SearchStatus code).
func (o *SearchObs) Stop(status int64) {
	if o == nil {
		return
	}
	o.fire(SiteStop)
	if o.rec != nil {
		o.emit(KStop, status, 0, 0)
	}
}

// Donate records this searcher donating its 0-branch at prefix rank.
func (o *SearchObs) Donate(rank int) {
	if o == nil {
		return
	}
	o.fire(SiteDonate)
	if o.rec != nil {
		o.emit(KDonate, int64(rank), 0, 0)
	}
}

// Idle and Busy bracket one of the lane's waits for work (an engine
// worker taking its next subproblem); End leaves that time out of the
// lane's active time. Recorder-only.
func (o *SearchObs) Idle() {
	if o != nil && o.rec != nil {
		o.idleAt = time.Now()
	}
}

// Busy ends the wait Idle began.
func (o *SearchObs) Busy() {
	if o != nil && o.rec != nil {
		o.idle += time.Since(o.idleAt)
	}
}

// End closes the lane with its lane_end event: the searcher's final
// feasibility-prune and bound-cutoff totals and its active time. Called
// once, when the searcher is done. Recorder-only, and no site fires: the
// searcher's last Poll has just fired SitePoll.
func (o *SearchObs) End(pruned, bounded int64) {
	if o == nil || o.rec == nil {
		return
	}
	o.emit(KLaneEnd, pruned, bounded, int64(time.Since(o.start)-o.idle))
}
