// Package analyze lifts the flat flight-recorder timeline (internal/obs)
// into a causal span tree — pipeline stage → DSE cell → block search →
// worker lane → rescue/greedy rung — and computes attribution reports
// over it: where the wall-clock went, which pruning rule earned its
// keep, which rescue rung delivered.
//
// The span model costs the recorder nothing new: block searches, stages
// and cells each allocate one span ID (obs.NextSpan) and parent links
// ride payload slots of the span's start event (KSearchStart.C,
// KStageStart.A); searcher lanes are bound to their search's span once
// at Probe.Attach. Prune and bound-cutoff counts are never tallied from
// events: each lane's lane_end event carries its searcher's exact
// core.Stats totals. The analyzer only ever consumes the merged event
// form, so it can run post-mortem on any recorded trace (cmd/isetrace)
// or in-process right after a run (the DSE sweep's per-cell
// attribution).
//
// Determinism contract: everything reachable from Analysis is grouped
// and keyed by stable names (tags, constraint tuples) — never by raw
// span IDs, lane IDs or timestamps, which are allocation- and
// timing-order dependent. The deterministic renderers (WriteExplain,
// ExplainReport) additionally exclude all timing- and worker-dependent
// quantities, so their output is byte-identical across worker counts
// for exhaustive runs; the full renderers (summary, critical path,
// lanes) embrace wall-clock and are for humans and fixtures, not for
// byte comparison across runs.
package analyze

import (
	"fmt"
	"sort"

	"isex/internal/obs"
)

// statusNames mirrors core.SearchStatus.String for the status codes
// carried by search_end events. Kept local so the analyzer depends only
// on obs; the cross-package agreement is asserted by a test.
var statusNames = []string{
	"exhaustive",
	"budget-stopped",
	"deadline-exceeded",
	"canceled",
	"recovered",
}

// StatusName renders a search_end status code.
func StatusName(code int64) string {
	if code >= 0 && int(code) < len(statusNames) {
		return statusNames[code]
	}
	return fmt.Sprintf("status(%d)", code)
}

// Lane is one searcher's activity inside one block search: the serial
// search, or one engine worker. Lane IDs are allocation-order
// dependent; lanes are therefore reported in ID order only inside full
// (non-deterministic) renderings.
type Lane struct {
	ID     int32
	Events int64
	// Active (ns the searcher spent searching rather than waiting for
	// work), Prunes (its feasibility rejections) and Bounds (its
	// merit-bound cutoffs) come from the lane's lane_end event.
	Active     int64
	Prunes     int64
	Bounds     int64
	Incumbents int64
	Donates    int64
	Stops      int64
}

// IncumbentStep is one incumbent improvement inside a block search.
type IncumbentStep struct {
	T     int64
	Merit int64
	Cuts  int64
}

// Block is one block search span (one searchBlock*Safe invocation).
type Block struct {
	Span   int64
	Parent int64 // stage or cell span, 0 at top level
	Tag    string
	Ops    int64
	// Workers is the engine worker count the search was configured with
	// (0 = serial); excluded from deterministic renderings.
	Workers int64
	StartT  int64
	EndT    int64
	Ended   bool
	Status  int64
	Merit   int64 // -1 when nothing found
	Cuts    int64 // cuts considered (from search_end; exact)

	// Tallies summed over lanes. Prunes and Bounds are the searchers'
	// own counters from their lane_end events: exact, and for exhaustive
	// runs without merit-bound pruning worker-count-invariant, because
	// the engine partitions the tree. The rest count events. All are
	// complete unless the recorder dropped events, which it reports.
	Prunes     int64
	Bounds     int64
	Incumbents int64
	Donates    int64

	Lanes     []*Lane
	Incumbent []IncumbentStep

	// Degradation-ladder outcomes (sys events scoped to this span).
	RescueTried bool
	RescueFound bool
	RescueMerit int64
	RescueCuts  int64
	GreedyTried bool
	GreedyFound bool
	GreedyMerit int64
	Panics      int64
}

// Duration returns the block's wall-clock span in nanoseconds (0 when
// the end event is missing).
func (b *Block) Duration() int64 {
	if !b.Ended || b.EndT < b.StartT {
		return 0
	}
	return b.EndT - b.StartT
}

// Stage is one selection-driver invocation span.
type Stage struct {
	Span       int64
	Parent     int64 // cell span, 0 at top level
	Tag        string
	Ninstr     int64
	StartT     int64
	EndT       int64
	Ended      bool
	Selected   int64
	TotalMerit int64
	IdentCalls int64

	Blocks []*Block

	// Driver-scoped events (emitted on the stage span).
	Collapses int64
}

// Duration returns the stage's wall-clock span in nanoseconds.
func (s *Stage) Duration() int64 {
	if !s.Ended || s.EndT < s.StartT {
		return 0
	}
	return s.EndT - s.StartT
}

// Cell is one DSE constraint group span ("benchmark/target" × (nin,nout)).
type Cell struct {
	Span   int64
	Tag    string // "benchmark/target"
	Nin    int64
	Nout   int64
	Ninstr int64
	StartT int64
	EndT   int64
	Ended  bool
	Merit  int64

	Stages []*Stage
}

// Duration returns the cell's wall-clock span in nanoseconds.
func (c *Cell) Duration() int64 {
	if !c.Ended || c.EndT < c.StartT {
		return 0
	}
	return c.EndT - c.StartT
}

// Analysis is the causal span tree plus whole-trace tallies.
type Analysis struct {
	Events int
	// Cells, Stages, Blocks hold every span in first-event order.
	// TopStages and TopBlocks list the spans with no recorded parent in
	// the trace (the usual case for single `isex` runs).
	Cells     []*Cell
	Stages    []*Stage
	Blocks    []*Block
	TopStages []*Stage
	TopBlocks []*Block
	// Orphans counts events whose span has no opening event in the
	// trace (the recorder dropped it) or whose span level does not take
	// their kind; Unscoped counts span-0 events.
	Orphans  int
	Unscoped int
}

// Build lifts a merged event timeline into the span tree. Events must be
// time-ordered (obs.Recorder.Merge order); ParseJSONL preserves it.
func Build(events []obs.Event) *Analysis {
	a := &Analysis{Events: len(events)}
	cells := make(map[int64]*Cell)
	stages := make(map[int64]*Stage)
	blocks := make(map[int64]*Block)

	for _, e := range events {
		if e.Span == 0 {
			a.Unscoped++
			continue
		}
		switch e.Kind {
		case obs.KStageStart:
			s := &Stage{Span: e.Span, Parent: e.A, Tag: e.Tag, Ninstr: e.B, StartT: e.T}
			stages[e.Span] = s
			a.Stages = append(a.Stages, s)
			continue
		case obs.KCellStart:
			c := &Cell{Span: e.Span, Tag: e.Tag, Nin: e.A, Nout: e.B, Ninstr: e.C, StartT: e.T}
			cells[e.Span] = c
			a.Cells = append(a.Cells, c)
			continue
		case obs.KSearchStart:
			b := &Block{Span: e.Span, Parent: e.C, Tag: e.Tag, Ops: e.A,
				Workers: e.B, StartT: e.T, Merit: -1}
			blocks[e.Span] = b
			a.Blocks = append(a.Blocks, b)
			continue
		}
		if b, ok := blocks[e.Span]; ok {
			buildBlockEvent(a, b, e)
			continue
		}
		if s, ok := stages[e.Span]; ok {
			buildStageEvent(s, e)
			continue
		}
		if c, ok := cells[e.Span]; ok {
			if e.Kind == obs.KCellEnd {
				c.Ended, c.EndT, c.Merit = true, e.T, e.C
			}
			continue
		}
		a.Orphans++
	}

	// Link children to parents; spans whose parent is absent from the
	// trace surface at top level.
	for _, s := range a.Stages {
		if c, ok := cells[s.Parent]; ok {
			c.Stages = append(c.Stages, s)
		} else {
			a.TopStages = append(a.TopStages, s)
		}
	}
	for _, b := range a.Blocks {
		if s, ok := stages[b.Parent]; ok {
			s.Blocks = append(s.Blocks, b)
		} else {
			a.TopBlocks = append(a.TopBlocks, b)
		}
	}
	for _, b := range a.Blocks {
		sort.Slice(b.Lanes, func(i, j int) bool { return b.Lanes[i].ID < b.Lanes[j].ID })
	}
	return a
}

// lane returns b's lane with the given id, adding it on the lane's
// first event.
func (b *Block) lane(id int32) *Lane {
	for _, l := range b.Lanes {
		if l.ID == id {
			return l
		}
	}
	l := &Lane{ID: id}
	b.Lanes = append(b.Lanes, l)
	return l
}

// buildBlockEvent folds one block-scoped event into its span.
func buildBlockEvent(a *Analysis, b *Block, e obs.Event) {
	// Searcher events update their lane; lane 0 events are
	// coordinator-side.
	var l *Lane
	if e.Lane != 0 {
		l = b.lane(e.Lane)
		l.Events++
	}
	switch e.Kind {
	case obs.KSearchEnd:
		b.Ended, b.EndT = true, e.T
		b.Status, b.Merit, b.Cuts = e.A, e.B, e.C
	case obs.KLaneEnd:
		b.Prunes += e.A
		b.Bounds += e.B
		if l != nil {
			l.Prunes, l.Bounds, l.Active = e.A, e.B, e.C
		}
	case obs.KIncumbent:
		b.Incumbents++
		if l != nil {
			l.Incumbents++
		}
		b.Incumbent = append(b.Incumbent, IncumbentStep{T: e.T, Merit: e.A, Cuts: e.B})
	case obs.KDonate:
		b.Donates++
		if l != nil {
			l.Donates++
		}
	case obs.KStop:
		if l != nil {
			l.Stops++
		}
	case obs.KRescue:
		b.RescueTried = true
		b.RescueFound = e.A != 0
		b.RescueMerit, b.RescueCuts = e.B, e.C
	case obs.KGreedy:
		b.GreedyTried = true
		b.GreedyFound = e.A != 0
		b.GreedyMerit = e.B
	case obs.KPanic:
		b.Panics++
	default:
		// A kind we do not attribute to blocks (stage/cell scoped, or a
		// future addition): count it so nothing disappears silently.
		a.Orphans++
	}
}

// buildStageEvent folds one stage-scoped event into its span.
func buildStageEvent(s *Stage, e obs.Event) {
	switch e.Kind {
	case obs.KStageEnd:
		s.Ended, s.EndT = true, e.T
		s.Selected, s.TotalMerit, s.IdentCalls = e.A, e.B, e.C
	case obs.KCollapse:
		s.Collapses++
	}
}

// blockKinds and stageKinds declare which kinds the builder attributes
// to which span level; HandledKinds is the union plus the span-opening
// and cell kinds. The exhaustiveness guard test asserts every obs.Kind
// is claimed by exactly one level.
var blockKinds = []obs.Kind{
	obs.KSearchEnd, obs.KLaneEnd, obs.KIncumbent, obs.KDonate,
	obs.KStop, obs.KRescue, obs.KGreedy, obs.KPanic,
}

var stageKinds = []obs.Kind{obs.KStageEnd, obs.KCollapse}

// spanOpenKinds open a new span.
var spanOpenKinds = []obs.Kind{obs.KSearchStart, obs.KStageStart, obs.KCellStart}

// cellKinds close cells.
var cellKinds = []obs.Kind{obs.KCellEnd}

// HandledKinds returns, for every obs.Kind, whether the analyzer has a
// decode case for it. The exhaustiveness guard test fails when a newly
// added kind is missing here and in the builder.
func HandledKinds() map[obs.Kind]bool {
	m := make(map[obs.Kind]bool)
	for _, set := range [][]obs.Kind{blockKinds, stageKinds, spanOpenKinds, cellKinds} {
		for _, k := range set {
			m[k] = true
		}
	}
	return m
}
