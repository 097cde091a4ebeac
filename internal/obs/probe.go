package obs

import "sync/atomic"

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

	// Work-stealing engine counters.
	Steals        *Counter
	StolenSubs    *Counter
	Donations     *Counter
	Resplits      *Counter
	WarmSeedHits  *Counter
	WorkerRetries *Counter
	Stalls        *Counter
	WorkersActive *Gauge
	DequeDepth    *Histogram

	// Selection-driver and admission-pool counters.
	Collapses *Counter
	PoolLeaks *Counter

	// Cross-block dedup counters.
	DedupHits   *Counter
	DedupMisses *Counter

	// Iterative-racer counters.
	RacerToggles   *Counter
	RacerRestarts  *Counter
	RacerPublished *Counter
	RacerAdopted   *Counter

	// Seed-book counters (cross-selection warm starts, DESIGN.md §16).
	SeedPuts    *Counter
	SeedHits    *Counter
	SeedRejects *Counter

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
		Steals:          reg.Counter("engine_steals_total"),
		StolenSubs:      reg.Counter("engine_stolen_subproblems_total"),
		Donations:       reg.Counter("engine_donations_total"),
		Resplits:        reg.Counter("engine_resplits_total"),
		WarmSeedHits:    reg.Counter("engine_warm_seed_hits_total"),
		WorkerRetries:   reg.Counter("engine_worker_retries_total"),
		Stalls:          reg.Counter("engine_stalls_total"),
		WorkersActive:   reg.Gauge("engine_workers_active"),
		DequeDepth:      reg.Histogram("engine_deque_depth"),
		Collapses:       reg.Counter("sched_collapses_total"),
		PoolLeaks:       reg.Counter("sched_pool_leaks_total"),
		DedupHits:       reg.Counter("sched_dedup_hits_total"),
		DedupMisses:     reg.Counter("sched_dedup_misses_total"),
		RacerToggles:    reg.Counter("racer_toggles_total"),
		RacerRestarts:   reg.Counter("racer_restarts_total"),
		RacerPublished:  reg.Counter("racer_incumbents_published_total"),
		RacerAdopted:    reg.Counter("racer_incumbents_adopted_total"),
		SeedPuts:        reg.Counter("seed_puts_total"),
		SeedHits:        reg.Counter("seed_hits_total"),
		SeedRejects:     reg.Counter("seed_revalidate_rejects_total"),
		Cells:           reg.Counter("dse_cells_total"),
	}
}

// Registry returns the registry the metrics were resolved from.
func (m *Metrics) Registry() *Registry { return m.reg }

// Probe is the observability handle carried in core.Config. A nil
// *Probe means observability is off and every probe point reduces to
// one nil check. Any combination of fields may be set: Rec enables the
// flight recorder, Met enables metrics, Hook is the per-block-search
// test seam that replaced the old core.searchHook global.
type Probe struct {
	// Rec, when non-nil, records the event timeline.
	Rec *Recorder
	// Met, when non-nil, receives metric updates.
	Met *Metrics
	// Hook, when non-nil, runs at the start of every panic-guarded
	// block search with the function and block names. It exists for
	// fault injection in tests; a panic inside it is handled by the
	// search's normal recovery path.
	Hook func(fn, block string)
	// Inj, when non-nil, fires at the head of every probe method with
	// the method's Site, before any recorder/metrics work — so a fault
	// injector observes every site even with telemetry off.
	Inj Injector
	// Live, when non-nil, receives a copy of every coordinator-side
	// (sys-ring) event as it is emitted — the feed behind the live sweep
	// progress surface. Only the rare block/stage/cell-scoped events flow
	// through it, never the per-worker ring events, so it stays off the
	// hot loops. The Event's T is zero (Live consumers track their own
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
		p.Rec.SysSpan(p.span, k, tag, a, b, c)
	}
	if p.Live != nil {
		p.Live(Event{Kind: k, Span: p.span, A: a, B: b, C: c, Tag: tag})
	}
}

// SpanID returns the causal span the probe is bound to (0 when nil or
// unscoped).
func (p *Probe) SpanID() int64 {
	if p == nil {
		return 0
	}
	return p.span
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

// MetricsOnly returns a probe that keeps the metrics and hook but drops
// the flight recorder (and the Live sink, which is sys-event-paced like
// the recorder). Sub-searches that would flood the timeline with
// repetitive fine-grained events (windowed-heuristic windows, warm-start
// passes) still contribute to the aggregate counters through it.
// Nil-safe; returns nil when nothing would remain enabled.
func (p *Probe) MetricsOnly() *Probe {
	if p == nil || (p.Rec == nil && p.Live == nil) {
		return p
	}
	if p.Met == nil && p.Hook == nil && p.Inj == nil {
		return nil
	}
	q := *p
	q.Rec, q.Live = nil, nil
	return &q
}

// HookOf returns the probe's hook, nil-safe.
func (p *Probe) HookOf() func(fn, block string) {
	if p == nil {
		return nil
	}
	return p.Hook
}

// Attach binds a new searcher goroutine to the probe, allocating it a
// private flight-recorder ring stamped with the probe's span (one ring
// per (block search, worker), so the binding is exact). Returns nil when
// the probe is nil or fully disabled, so searchers keep a single
// `s.obs != nil` gate.
func (p *Probe) Attach() *SearchObs {
	if p == nil || (p.Rec == nil && p.Met == nil && p.Inj == nil) {
		return nil
	}
	o := &SearchObs{met: p.Met, inj: p.Inj}
	if p.Rec != nil {
		o.ring = p.Rec.NewRing()
		o.ring.span = p.span
	}
	return o
}

// Sys records a coordinator-side event if the flight recorder or Live
// sink is on, stamped with the probe's span. Nil-safe; safe from any
// goroutine.
func (p *Probe) Sys(k Kind, tag string, a, b, c int64) {
	if p == nil {
		return
	}
	p.sysEmit(k, tag, a, b, c)
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

// WarmSeed records a warm-start pass seeding an engine-level incumbent
// (the searcher-side analog is SearchObs.WarmSeed).
func (p *Probe) WarmSeed(merit int64) {
	if p == nil {
		return
	}
	p.fire(SiteWarmSeed, "")
	if p.Met != nil {
		p.Met.WarmSeedHits.Inc()
	}
	p.sysEmit(KWarmSeed, "", merit, 0, 0)
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

// Dedup records a cross-block dedup lookup by a selection driver: hit
// means an isomorphic block's identification was adopted (after
// Legal/Evaluate revalidation on the requesting block's graph); m is the
// per-cut limit (0 for the single-cut search).
func (p *Probe) Dedup(tag string, hit bool, m int) {
	if p == nil {
		return
	}
	p.fire(SiteDedup, tag)
	if p.Met != nil {
		if hit {
			p.Met.DedupHits.Inc()
		} else {
			p.Met.DedupMisses.Inc()
		}
	}
	var h int64
	if hit {
		h = 1
	}
	p.sysEmit(KDedup, tag, h, int64(m), 0)
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

// RacerToggles flushes the iterative racer's toggle-iteration tally as
// a delta (the racer counts locally and flushes at restart boundaries
// and on exit, mirroring FlushStats' delta discipline); total is the
// racer's running total after the flush.
func (p *Probe) RacerToggles(delta, total int64) {
	if p == nil || delta <= 0 {
		return
	}
	p.fire(SiteToggle, "")
	if p.Met != nil {
		p.Met.RacerToggles.Add(delta)
	}
	p.sysEmit(KToggle, "", delta, total, 0)
}

// RacerRestart records the racer beginning KL restart number restart
// from a seed of the given merit (-1 when seedless) and size.
func (p *Probe) RacerRestart(tag string, restart int, seedMerit int64, seedSize int) {
	if p == nil {
		return
	}
	p.fire(SiteRestart, tag)
	if p.Met != nil {
		p.Met.RacerRestarts.Inc()
	}
	p.sysEmit(KRestart, tag, int64(restart), seedMerit, int64(seedSize))
}

// RacerPublish records the racer publishing a Legal/Evaluate revalidated
// incumbent of the given merit into the shared bound, found on the given
// restart with cutSize members.
func (p *Probe) RacerPublish(tag string, merit int64, restart, cutSize int) {
	if p == nil {
		return
	}
	p.fire(SiteRacerPublish, tag)
	if p.Met != nil {
		p.Met.RacerPublished.Inc()
	}
	p.sysEmit(KRacerPublish, tag, merit, int64(restart), int64(cutSize))
}

// RacerAdopt records the anytime layer adopting the racer's best answer
// for a block the exact rungs could not finish; prevMerit is the merit
// the earlier rungs had reached (-1 when none).
func (p *Probe) RacerAdopt(tag string, merit, prevMerit int64) {
	if p == nil {
		return
	}
	p.fire(SiteRacerPublish, tag)
	if p.Met != nil {
		p.Met.RacerAdopted.Inc()
	}
	p.sysEmit(KRacerAdopt, tag, merit, prevMerit, 0)
}

// Stall records the engine watchdog declaring a worker stalled after
// samples consecutive watchdog windows without poll progress. Like
// Panic, it is not an injection site.
func (p *Probe) Stall(wid, samples int) {
	if p == nil {
		return
	}
	if p.Met != nil {
		p.Met.Stalls.Inc()
	}
	p.sysEmit(KStall, "", int64(wid), int64(samples), 0)
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

// BeginCell opens a DSE-cell span: one per constraint group of a sweep
// chain. Tag is "benchmark/target"; nin/nout the port constraints and
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

// SeedPut records a SeedBook storing an exhaustive winner of the given
// merit and cut size for the block.
func (p *Probe) SeedPut(tag string, merit int64, size int) {
	if p == nil {
		return
	}
	p.fire(SiteSeed, tag)
	if p.Met != nil {
		p.Met.SeedPuts.Inc()
	}
	p.sysEmit(KSeedPut, tag, merit, int64(size), 0)
}

// SeedHit records a SeedBook lookup arming a revalidated incumbent seed
// of the given merit and cut size.
func (p *Probe) SeedHit(tag string, merit int64, size int) {
	if p == nil {
		return
	}
	p.fire(SiteSeed, tag)
	if p.Met != nil {
		p.Met.SeedHits.Inc()
	}
	p.sysEmit(KSeedHit, tag, merit, int64(size), 0)
}

// SeedReject records a SeedBook lookup rejecting rejected stored cuts at
// revalidation (illegal at the consuming constraints or non-positive
// re-evaluated merit).
func (p *Probe) SeedReject(tag string, rejected int) {
	if p == nil || rejected <= 0 {
		return
	}
	p.fire(SiteSeed, tag)
	if p.Met != nil {
		p.Met.SeedRejects.Add(int64(rejected))
	}
	p.sysEmit(KSeedReject, tag, int64(rejected), 0, 0)
}

// SearchObs is one searcher goroutine's view of the probe: a private
// ring (may be nil under MetricsOnly) plus the shared metrics. The
// flush marks implement delta-flushing of the searcher's running Stats
// into the global counters without per-cut atomics.
type SearchObs struct {
	ring *Ring
	met  *Metrics
	inj  Injector

	flushedConsidered int64
	flushedPassed     int64
	flushedPruned     int64
	flushedBounds     int64
}

// FlushStats publishes the searcher's running totals as deltas against
// what was already flushed. Called at poll cadence and at search end;
// totals must be monotone per SearchObs.
// fire dispatches a searcher-local site to the injector, nil-safe.
func (o *SearchObs) fire(s Site) {
	if o == nil || o.inj == nil {
		return
	}
	o.inj.Fire(s, "")
}

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
	if o.ring != nil {
		o.ring.Emit(KIncumbent, "", merit, cuts, int64(rank))
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
	if o.ring != nil {
		o.ring.Emit(KStop, "", status, 0, 0)
	}
}

// Steal records this searcher stealing n subproblems from victim.
func (o *SearchObs) Steal(victim, n, depth int64) {
	if o == nil {
		return
	}
	o.fire(SiteSteal)
	if o.met != nil {
		o.met.Steals.Inc()
		o.met.StolenSubs.Add(n)
		o.met.DequeDepth.Observe(depth)
	}
	if o.ring != nil {
		o.ring.Emit(KSteal, "", n, victim, depth)
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
	if o.ring != nil {
		o.ring.Emit(KDonate, "", int64(rank), 0, 0)
	}
}

// Resplit records this searcher expanding a shallow subproblem at depth
// into children child subproblems.
func (o *SearchObs) Resplit(depth, children int) {
	if o == nil {
		return
	}
	o.fire(SiteResplit)
	if o.met != nil {
		o.met.Resplits.Inc()
	}
	if o.ring != nil {
		o.ring.Emit(KResplit, "", int64(depth), int64(children), 0)
	}
}

// Pruned records a feasibility rejection (ports or convexity) at node
// rank. Ring-only: the aggregate count flows through FlushStats.
func (o *SearchObs) Pruned(rank int) {
	if o == nil {
		return
	}
	o.fire(SitePrune)
	if o.ring == nil {
		return
	}
	o.ring.Emit(KPrune, "", int64(rank), 0, 0)
}

// Bound records a merit-upper-bound subtree cutoff at node rank against
// the current incumbent. Ring-only, like Pruned.
func (o *SearchObs) Bound(rank int, incumbent int64) {
	if o == nil {
		return
	}
	o.fire(SitePrune)
	if o.ring == nil {
		return
	}
	o.ring.Emit(KBound, "", int64(rank), incumbent, 0)
}

// WarmSeed records the search starting from a warm incumbent of merit.
func (o *SearchObs) WarmSeed(merit int64) {
	if o == nil {
		return
	}
	o.fire(SiteWarmSeed)
	if o.met != nil {
		o.met.WarmSeedHits.Inc()
	}
	if o.ring != nil {
		o.ring.Emit(KWarmSeed, "", merit, 0, 0)
	}
}
