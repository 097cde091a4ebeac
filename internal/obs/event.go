// Package obs is the search telemetry subsystem: a flight recorder of
// typed search events and the Probe handle that internal/core threads
// through every search layer, which also carries the fault-injection
// seam (Injector).
//
// Design constraints, in priority order:
//
//  1. Observation must never change what the search computes. Events
//     are a strictly write-only side channel; nothing in this package
//     feeds a value back into search decisions.
//  2. A nil probe must cost one predictable branch per probe point. All
//     Probe and SearchObs methods are nil-receiver safe, and the hot
//     per-cut counters are never emitted: they stay in core.Stats.
//  3. The enabled path must be allocation-free per event, and no event
//     is per cut. Events are fixed-size structs written into one
//     preallocated buffer; a searcher's prune and bound-cutoff totals
//     are its own core.Stats counters, recorded once when it ends.
package obs

import "fmt"

// Kind identifies the type of a recorded search event.
type Kind uint8

const (
	// KSearchStart marks the start of one block search. Tag is
	// "fn/block", A the operation count, B the worker count.
	KSearchStart Kind = iota
	// KSearchEnd marks the end of one block search. Tag is "fn/block",
	// A the SearchStatus code, B the merit found (-1 when none), C the
	// cuts the exact search (rung 0) considered; a rescue's cuts ride
	// its KRescue event.
	KSearchEnd
	// KIncumbent records an incumbent improvement: A the new merit, B
	// the cuts considered so far by the emitting searcher, C the node
	// rank at which the cut completed.
	KIncumbent
	// KDonate records the emitting worker donating the unexplored
	// 0-branch at prefix rank A to the engine's list of subproblems.
	KDonate
	// KStop records a searcher observing a stop condition: A the
	// SearchStatus code (BudgetStopped, DeadlineExceeded, Canceled).
	KStop
	// KLaneEnd closes one searcher's lane: the serial search or one
	// engine worker. A is the searcher's exact count of feasibility
	// prunes (core.Stats.Pruned), B its merit-bound cutoffs
	// (core.Stats.Bounded), C its active nanoseconds — the time since
	// Probe.Attach less its waits for work.
	KLaneEnd
	// KRescue records a §9 windowed rescue attempt after a trip. Tag is
	// "fn/block", A is 1 when the rescue found a cut, B its merit, C
	// the cuts the rescue examined.
	KRescue
	// KCollapse records a selection-round winner collapse. Tag is the
	// super-node name, A the selection round, B the cut size.
	KCollapse
	// KPanic records a recovered panic. Tag is "fn/block: message"
	// (truncated); A is the retry attempt that recovered it (0 for the
	// block-level guard).
	KPanic
	// KGreedy records a greedy last-resort rescue attempt (the bottom
	// rung of the degradation ladder). Tag is "fn/block", A is 1 when
	// the rung produced a cut, B its merit, C the candidate count.
	KGreedy
	// KStageStart marks a selection driver entering: one stage span per
	// SelectIterativeCtx/SelectOptimalCtx invocation. Tag is the driver
	// name ("select/iterative", "select/optimal"), A the parent span (0
	// at top level), B the instruction budget ninstr. The event's Span is
	// the freshly allocated stage span; block searches launched by the
	// driver carry it as their parent.
	KStageStart
	// KStageEnd marks the driver returning: A the number of instructions
	// selected, B the total merit, C the identification calls consumed.
	KStageEnd
	// KCellStart marks a DSE sweep task beginning one constraint group's
	// selection. Tag is "benchmark/target", A is Nin, B is Nout, C the
	// maximum Ninstr the group searches. The event's Span is the cell
	// span; the group's selection stage carries it as its parent.
	KCellStart
	// KCellEnd marks the constraint group done: A is Nin, B is Nout, C
	// the selection's total merit.
	KCellEnd

	// KindCount is the number of defined kinds; kinds are dense, so
	// Kind(i) for i < KindCount enumerates them.
	KindCount = int(KCellEnd) + 1
	kindCount = KindCount
)

var kindNames = [kindCount]string{
	KSearchStart: "search_start",
	KSearchEnd:   "search_end",
	KIncumbent:   "incumbent",
	KDonate:      "donate",
	KStop:        "stop",
	KLaneEnd:     "lane_end",
	KRescue:      "rescue",
	KCollapse:    "collapse",
	KPanic:       "panic",
	KGreedy:      "greedy_rescue",
	KStageStart:  "stage_start",
	KStageEnd:    "stage_end",
	KCellStart:   "cell_start",
	KCellEnd:     "cell_end",
}

// String returns the stable wire name of the kind ("incumbent", "donate",
// ...) used by the JSONL export and the analyzer's Chrome re-export.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one fixed-size flight-recorder entry. T is nanoseconds since
// the owning Recorder's epoch; Lane identifies the searcher that
// recorded it (the id Probe.Attach handed out; 0 for coordinator-side
// events). The meaning of A, B, C and Tag depends on Kind; unused
// fields are zero.
//
// Span is the causal-span ID the event belongs to (0 = unscoped): block
// searches, selection stages and DSE cells each allocate one via
// NextSpan, and parent links ride the payload slots of the span's start
// event (KSearchStart.C, KStageStart.A) — so the flat
// timeline lifts into the stage → cell → block → worker tree without
// any per-event parent pointer. Span IDs are process-unique and
// allocation-order dependent; deterministic analyzer output must never
// expose raw IDs, only the relations they encode.
type Event struct {
	T    int64
	Lane int32
	Kind Kind
	Span int64
	A    int64
	B    int64
	C    int64
	Tag  string
}
