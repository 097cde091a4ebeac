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

// Metrics is the well-known instrument set the search layers update.
// Resolving the instruments once here keeps registry lookups off every
// probe point. All fields are non-nil after NewMetrics.
type Metrics struct {
	reg *Registry

	// Search-progress counters (flushed as deltas at poll cadence, so
	// they lag live state by at most one poll interval).
	CutsConsidered *Counter
	CutsPassed     *Counter
	CutsPruned     *Counter
	BoundCutoffs   *Counter
	Incumbents     *Counter
	Searches       *Counter

	// Anytime-contract counters.
	DeadlineTrips *Counter
	BudgetTrips   *Counter
	CancelTrips   *Counter
	Rescues       *Counter
	RescueHits    *Counter

	// Degradation-ladder and fault-recovery counters.
	PanicsRecovered *Counter
	GreedyRescues   *Counter
	GreedyHits      *Counter

	// Parallel engine counters.
	Donations     *Counter
	WorkerRetries *Counter
	WorkersActive *Gauge

	// Selection-driver counters.
	Collapses *Counter

	// DSE sweep counters.
	Cells *Counter
}

// NewMetrics resolves the well-known instrument set in reg.
func NewMetrics(reg *Registry) *Metrics {
	return &Metrics{
		reg:             reg,
		CutsConsidered:  reg.Counter("search_cuts_considered_total"),
		CutsPassed:      reg.Counter("search_cuts_passed_total"),
		CutsPruned:      reg.Counter("search_cuts_pruned_total"),
		BoundCutoffs:    reg.Counter("search_bound_cutoffs_total"),
		Incumbents:      reg.Counter("search_incumbents_total"),
		Searches:        reg.Counter("search_block_searches_total"),
		DeadlineTrips:   reg.Counter("search_deadline_trips_total"),
		BudgetTrips:     reg.Counter("search_budget_trips_total"),
		CancelTrips:     reg.Counter("search_cancel_trips_total"),
		Rescues:         reg.Counter("search_rescues_total"),
		RescueHits:      reg.Counter("search_rescue_hits_total"),
		PanicsRecovered: reg.Counter("search_panics_recovered_total"),
		GreedyRescues:   reg.Counter("search_greedy_rescues_total"),
		GreedyHits:      reg.Counter("search_greedy_hits_total"),
		Donations:       reg.Counter("engine_donations_total"),
		WorkerRetries:   reg.Counter("engine_worker_retries_total"),
		WorkersActive:   reg.Gauge("engine_workers_active"),
		Collapses:       reg.Counter("sched_collapses_total"),
		Cells:           reg.Counter("dse_cells_total"),
	}
}

// Registry returns the registry the metrics were resolved from.
func (m *Metrics) Registry() *Registry { return m.reg }

// Probe is the observability handle carried in core.Config. A nil
// *Probe means observability is off and every probe point reduces to
// one nil check. Any combination of fields may be set: Rec enables the
// flight recorder, Met enables metrics, Inj is the fault-injection seam.
type Probe struct {
	// Rec, when non-nil, records the event timeline.
	Rec *Recorder
	// Met, when non-nil, receives metric updates.
	Met *Metrics
	// Inj, when non-nil, fires at the head of every probe method with
	// the method's Site, before any recorder/metrics work — so a fault
	// injector observes every site even with telemetry off.
	Inj Injector
	// Live, when non-nil, receives a copy of every coordinator-side
	// (lane 0) event as it is emitted — the feed behind the live sweep
	// progress surface. Only the rare block/stage/cell-scoped events flow
	// through it, never the searchers' own, so it stays off the search
	// loops. The Event's T is zero (Live consumers track their own
	// clocks); Live must be safe for concurrent use.
	Live func(Event)

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
// span, and feeds the Live sink. Callers gate on p != nil.
func (p *Probe) sysEmit(k Kind, tag string, a, b, c int64) {
	if p.Rec != nil {
		p.Rec.emit(0, p.span, k, tag, a, b, c)
	}
	if p.Live != nil {
		p.Live(Event{Kind: k, Span: p.span, A: a, B: b, C: c, Tag: tag})
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

// MetricsOnly returns a probe that keeps the metrics and the injector
// but drops the flight recorder (and the Live sink, which is paced by
// the recorder's coordinator events). Sub-searches that would flood the
// timeline with repetitive events (the windowed heuristic's windows)
// still contribute to the aggregate counters through it.
// Nil-safe; returns nil when nothing would remain enabled.
func (p *Probe) MetricsOnly() *Probe {
	if p == nil || (p.Rec == nil && p.Live == nil) {
		return p
	}
	if p.Met == nil && p.Inj == nil {
		return nil
	}
	q := *p
	q.Rec, q.Live = nil, nil
	return &q
}

// Attach binds a new searcher goroutine to the probe, handing it a
// fresh lane id: its events carry that lane and the probe's span (one
// lane per (block search, worker), so the binding is exact). Returns nil
// when the probe is nil or fully disabled, so searchers keep a single
// `s.obs != nil` gate.
func (p *Probe) Attach() *SearchObs {
	if p == nil || (p.Rec == nil && p.Met == nil && p.Inj == nil) {
		return nil
	}
	o := &SearchObs{met: p.Met, inj: p.Inj}
	if p.Rec != nil {
		o.rec, o.lane, o.span, o.start = p.Rec, p.Rec.newLane(), p.span, time.Now()
	}
	return o
}

// Count increments counter c if metrics are on. Nil-safe.
func (p *Probe) Count(c func(*Metrics) *Counter) {
	if p == nil || p.Met == nil {
		return
	}
	c(p.Met).Inc()
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
	if p.Met != nil {
		p.Met.Searches.Inc()
	}
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
	if p.Met != nil {
		p.Met.Rescues.Inc()
		if found {
			p.Met.RescueHits.Inc()
		}
	}
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
	if p.Met != nil {
		p.Met.Collapses.Inc()
	}
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
	if p.Met != nil {
		p.Met.PanicsRecovered.Inc()
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
	if p.Met != nil {
		p.Met.GreedyRescues.Inc()
		if found {
			p.Met.GreedyHits.Inc()
		}
	}
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
	if p.Met != nil {
		p.Met.Cells.Inc()
	}
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
// the recorder (rec is nil under MetricsOnly) plus the shared metrics.
// The flush marks implement delta-flushing of the searcher's running
// Stats into the global counters without per-cut atomics.
type SearchObs struct {
	rec  *Recorder
	lane int32
	span int64
	met  *Metrics
	inj  Injector

	// start is when the lane was attached; idle sums its waits for work
	// (Idle to Busy), and idleAt is when the current wait began.
	start  time.Time
	idle   time.Duration
	idleAt time.Time

	flushedConsidered int64
	flushedPassed     int64
	flushedPruned     int64
	flushedBounds     int64
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

// FlushStats publishes the searcher's running totals as deltas against
// what was already flushed. Called at poll cadence and at search end;
// totals must be monotone per SearchObs.
func (o *SearchObs) FlushStats(considered, passed, pruned, bounds int64) {
	if o == nil {
		return
	}
	o.fire(SitePoll)
	if o.met == nil {
		return
	}
	if d := considered - o.flushedConsidered; d > 0 {
		o.met.CutsConsidered.Add(d)
		o.flushedConsidered = considered
	}
	if d := passed - o.flushedPassed; d > 0 {
		o.met.CutsPassed.Add(d)
		o.flushedPassed = passed
	}
	if d := pruned - o.flushedPruned; d > 0 {
		o.met.CutsPruned.Add(d)
		o.flushedPruned = pruned
	}
	if d := bounds - o.flushedBounds; d > 0 {
		o.met.BoundCutoffs.Add(d)
		o.flushedBounds = bounds
	}
}

// Incumbent records an incumbent improvement to merit at node rank,
// after cuts considered cuts.
func (o *SearchObs) Incumbent(merit, cuts int64, rank int) {
	if o == nil {
		return
	}
	o.fire(SiteIncumbent)
	if o.met != nil {
		o.met.Incumbents.Inc()
	}
	if o.rec != nil {
		o.emit(KIncumbent, merit, cuts, int64(rank))
	}
}

// Stop records the searcher observing stop condition status (the
// core.SearchStatus code) and bumps the matching trip counter.
func (o *SearchObs) Stop(status int64, deadline, budget, canceled bool) {
	if o == nil {
		return
	}
	o.fire(SiteStop)
	if o.met != nil {
		switch {
		case deadline:
			o.met.DeadlineTrips.Inc()
		case budget:
			o.met.BudgetTrips.Inc()
		case canceled:
			o.met.CancelTrips.Inc()
		}
	}
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
	if o.met != nil {
		o.met.Donations.Inc()
	}
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
// searcher's last FlushStats has just fired SitePoll.
func (o *SearchObs) End(pruned, bounded int64) {
	if o == nil || o.rec == nil {
		return
	}
	o.emit(KLaneEnd, pruned, bounded, int64(time.Since(o.start)-o.idle))
}
