package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"isex/internal/dfg"
	"isex/internal/greedy"
	"isex/internal/obs"
)

// This file makes identification an *anytime* engine: every search accepts
// a context.Context whose deadline/cancellation is polled periodically,
// every per-block worker is panic-safe, and every block search descends a
// guaranteed-sound degradation ladder:
//
//	rung 0  exact §6 branch-and-bound (anytime: budget/deadline/cancel)
//	rung 1  §9 windowed rescue under a detached grace context
//	rung 2  greedy last resort: clubbing + MaxMISO candidates revalidated
//	        with Legal/Evaluate (linear time, always terminates)
//
// Each rung is individually panic-guarded, so a fault in one rung drops
// the search to the next instead of unwinding the block; the engine
// returns the best sound answer it has, annotated with how it was
// obtained (SearchStatus + Rung), and never crashes or comes back
// empty-handed when the block has any legal positive-merit cut.

// SearchStatus classifies how a search ended, so callers know exactly how
// trustworthy a result is.
type SearchStatus uint8

const (
	// Exhaustive: the search ran to completion; the result is exact
	// (optimal under the configured algorithm).
	Exhaustive SearchStatus = iota
	// BudgetStopped: the MaxCuts valve tripped; the result is the best
	// found so far — a sound lower bound.
	BudgetStopped
	// DeadlineExceeded: the context deadline expired mid-search; the
	// result is the best found so far.
	DeadlineExceeded
	// Canceled: the context was canceled; the result is the best found so
	// far (no windowed rescue is attempted — the caller asked to stop;
	// only the O(E) greedy rung may still fill in an empty result).
	Canceled
	// Recovered: a worker panicked (or the block's graph could not be
	// built); the block contributes whatever the lower rungs salvaged,
	// other blocks are unaffected.
	Recovered
)

func (s SearchStatus) String() string {
	switch s {
	case Exhaustive:
		return "exhaustive"
	case BudgetStopped:
		return "budget-stopped"
	case DeadlineExceeded:
		return "deadline-exceeded"
	case Canceled:
		return "canceled"
	case Recovered:
		return "recovered"
	}
	return fmt.Sprintf("SearchStatus(%d)", uint8(s))
}

// worse returns the more severe of two statuses (severity increases with
// the constant order above).
func worse(a, b SearchStatus) SearchStatus {
	if b > a {
		return b
	}
	return a
}

// statusOfCtx maps a non-nil context error to its status.
func statusOfCtx(err error) SearchStatus {
	if errors.Is(err, context.DeadlineExceeded) {
		return DeadlineExceeded
	}
	return Canceled
}

// Rung identifies which rung of the degradation ladder produced the
// cut a block search returned.
type Rung uint8

const (
	// RungExact: the returned cut (or the absence of one) came from the
	// exact §6 branch-and-bound search.
	RungExact Rung = iota
	// RungWindowed: the §9 windowed rescue's cut replaced (or supplied)
	// the exact search's answer.
	RungWindowed
	// RungGreedy: the greedy last resort (clubbing/MaxMISO candidates
	// revalidated with Legal/Evaluate) supplied the answer.
	RungGreedy
)

func (r Rung) String() string {
	switch r {
	case RungExact:
		return "exact"
	case RungWindowed:
		return "windowed"
	case RungGreedy:
		return "greedy"
	}
	return fmt.Sprintf("Rung(%d)", uint8(r))
}

// BlockStatus reports how the search of one basic block ended.
type BlockStatus struct {
	Fn, Block string
	Status    SearchStatus
	// Fallback reports that the §9 windowed heuristic re-ran the block
	// after the exact search tripped its budget or deadline; the block's
	// contribution is the better of the two sound answers.
	Fallback bool
	// Rung reports which ladder rung produced the block's returned cut
	// (the degradation reason when below RungExact).
	Rung Rung
	// Err carries the first recovered panic (message plus truncated
	// stack) or graph-construction failure observed for the block.
	Err error
}

// mergeBlockStatus folds a later search of the same block (after a
// collapse) into its running status.
func mergeBlockStatus(dst *BlockStatus, s BlockStatus) {
	dst.Status = worse(dst.Status, s.Status)
	dst.Fallback = dst.Fallback || s.Fallback
	if s.Rung > dst.Rung {
		dst.Rung = s.Rung
	}
	if dst.Err == nil {
		dst.Err = s.Err
	}
}

// panicStackMax bounds the debug.Stack excerpt attached to recovered
// panics, keeping BlockStatus.Err (and its JSON rendering) readable.
const panicStackMax = 2048

// panicErr wraps a recovered panic value with the failing block's tag
// and a truncated stack excerpt.
func panicErr(tag string, r any) error {
	stack := debug.Stack()
	if len(stack) > panicStackMax {
		stack = append(stack[:panicStackMax:panicStackMax], "... [truncated]"...)
	}
	return fmt.Errorf("core: panic searching %s: %v\n%s", tag, r, stack)
}

// panicMsg renders a recovered panic value as a short one-line message
// for trace events.
func panicMsg(r any) string {
	s := fmt.Sprintf("%v", r)
	if i := len(s); i > 160 {
		s = s[:160] + "..."
	}
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			s = s[:i]
			break
		}
	}
	return s
}

// guardRung runs one ladder rung, converting a panic inside it into a
// Recovered status with a stack-annotated error instead of unwinding
// the block search — the next rung still runs.
func guardRung(p *obs.Probe, tag string, bs *BlockStatus, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			bs.Status = worse(bs.Status, Recovered)
			if bs.Err == nil {
				bs.Err = panicErr(tag, r)
			}
			p.Panic(tag, panicMsg(r), 0)
		}
	}()
	fn()
}

// guardDriver is deferred by the public selection entry points: a panic
// escaping the per-block guards (for example one raised at a driver-side
// probe site, where no block worker is on the stack) is converted into a
// Recovered selection instead of crashing the caller.
// Whatever the driver had assembled into res before the panic survives; a
// synthetic "(driver)" block records the failure, and the result is
// re-finalized so Status/Degraded/FirstPanic stay truthful.
func guardDriver(p *obs.Probe, res *SelectionResult) {
	if r := recover(); r != nil {
		p.Panic("select-driver", panicMsg(r), 0)
		res.Blocks = append(res.Blocks, BlockStatus{
			Fn:     "(driver)",
			Status: Recovered,
			Err:    panicErr("select-driver", r),
		})
		res.finalize()
	}
}

// legalCut revalidates a cut defensively: a panic inside Legal (e.g. a
// cut corrupted by the very fault being recovered) counts as illegal.
func legalCut(g *dfg.Graph, c dfg.Cut, nin, nout int) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return len(c) > 0 && g.Legal(c, nin, nout)
}

// rescueWorthwhile reports whether the §9 windowed rescue should re-run
// a block that ended with status s. Canceled is excluded: the caller
// asked all work to stop, and the windowed pass is a real (if bounded)
// search. Recovered is included — the exact answer may be missing or
// partial through no fault of the block.
func rescueWorthwhile(s SearchStatus) bool {
	switch s {
	case BudgetStopped, DeadlineExceeded, Recovered:
		return true
	}
	return false
}

// greedyRescue is the bottom rung: screen the linear-time clubbing and
// MaxMISO decompositions for the best cut that is Legal under the
// configured ports and has positive merit. O(E) overall, no search, no
// context — it always terminates, even under a canceled context, which
// is what makes the ladder's guarantee unconditional. Deterministic:
// candidate order is fixed and ties keep the first candidate.
func greedyRescue(g *dfg.Graph, cfg Config) (best dfg.Cut, bestEst Estimate, cands int, found bool) {
	model := cfg.model()
	list := greedy.Clubbing(g, cfg.Nin, cfg.Nout)
	list = append(list, greedy.MaxMISODecompose(g)...)
	for _, c := range list {
		if !legalCut(g, c, cfg.Nin, cfg.Nout) {
			continue
		}
		est := Evaluate(g, c, model)
		if est.Merit <= 0 {
			continue
		}
		if !found || est.Merit > bestEst.Merit {
			found, best, bestEst = true, c, est
		}
	}
	return best, bestEst, len(list), found
}

// ctxCheckInterval is the number of visited nodes between polls in the
// exact searchers; a visit ticks once, whichever branches it takes, so
// a §6.1 poll period considers at most this many cuts and a §6.2 one at
// most M times as many. Rare enough to cost nothing, frequent enough
// that an expired deadline is noticed within microseconds. Must be a
// power of two.
const ctxCheckInterval = 1024

// fallbackWindow sizes the §9 windowed rescue pass that re-runs a block
// whose exact search tripped its budget or deadline: each window's search
// is bounded by 2^fallbackWindow cuts, so the rescue is always cheap.
const fallbackWindow = 12

// Bounds of the grace period granted to a windowed rescue whose original
// deadline has already expired. The grace must be long enough for the
// cheap windowed pass to finish on any realistic block, yet small against
// the budgets callers set (the clamp keeps a multi-minute budget from
// earning a multi-minute overrun).
const (
	minRescueGrace = 50 * time.Millisecond
	maxRescueGrace = time.Second
)

// rescueCtx returns the context the §9 windowed rescue should run under.
// A live ctx (budget trip) is used as-is. An expired ctx would kill the
// rescue at its first poll — the bug this function exists to fix — so the
// rescue is detached from the expired deadline (keeping ctx's values) and
// given a short grace timeout derived from the original budget: one
// eighth of the wall-clock budget this block search was granted, clamped
// to [minRescueGrace, maxRescueGrace]. Explicit cancellation is never
// overridden: callers that canceled asked all work to stop.
func rescueCtx(ctx context.Context, start time.Time) (context.Context, context.CancelFunc) {
	if err := ctx.Err(); err == nil || !errors.Is(err, context.DeadlineExceeded) {
		return ctx, func() {}
	}
	grace := minRescueGrace
	if dl, ok := ctx.Deadline(); ok {
		if b := dl.Sub(start) / 8; b > grace {
			grace = b
		}
	}
	if grace > maxRescueGrace {
		grace = maxRescueGrace
	}
	return context.WithTimeout(context.WithoutCancel(ctx), grace)
}

// searchBlock runs one block's identification down the degradation
// ladder: rung 0 is exact (the §6.1 or §6.2 search), then — when it
// tripped or failed — the §9 windowed rescue under a grace context, then
// the greedy last resort. The windowed and greedy rungs contribute one
// cut, a valid 1-of-m assignment, when they beat rung 0's answer. Every
// rung is panic-guarded individually, so any fault — including one
// injected inside a probe site — degrades the answer instead of losing
// it; the final backstop keeps a result only if its cuts revalidate as
// Legal.
func searchBlock(ctx context.Context, g *dfg.Graph, cfg Config, exact func(context.Context, Config) MultiResult) (res MultiResult, bs BlockStatus) {
	start := time.Now()
	bs = BlockStatus{Fn: g.Fn.Name, Block: g.Block.Name}
	tag := bs.Fn + "/" + bs.Block
	// Every block search owns one causal span: the rescue rungs, the
	// engine's worker lanes and the sub-searches all inherit the
	// sub-probe, so their events group under this search in the
	// analyzer's span tree. One atomic add per block search.
	cfg.Probe = cfg.Probe.Sub()
	defer func() {
		// Backstop for panics escaping the rung guards themselves
		// (including a fault injected at the SearchEnd site below): keep
		// the answer when it revalidates, never report an illegal cut.
		if r := recover(); r != nil {
			bs.Status = worse(bs.Status, Recovered)
			if bs.Err == nil {
				bs.Err = panicErr(tag, r)
			}
			if res.Found && !cutsLegal(g, res.Cuts, cfg.Nin, cfg.Nout) {
				res = MultiResult{}
			}
		}
		res.Status = bs.Status
	}()
	// adopt makes a rescue rung's cut the block's answer.
	adopt := func(cut dfg.Cut, est Estimate, rung Rung) {
		res.Found, res.Cuts, res.Ests, res.TotalMerit = true, []dfg.Cut{cut}, []Estimate{est}, est.Merit
		bs.Rung = rung
	}

	// Rung 0: exact B&B (serial or engine per cfg). search_end
	// reports its cuts alone, as its lanes report its prunes alone; the
	// rescue's cuts ride the rescue's own event.
	var exactCuts int64
	guardRung(cfg.Probe, tag, &bs, func() {
		cfg.Probe.SearchBegin(tag, g.NumOps(), cfg.Workers)
		res = exact(ctx, cfg)
		exactCuts = res.Stats.CutsConsidered
		bs.Status = res.Status
		if bs.Err == nil {
			bs.Err = res.Err
		}
	})

	// Rung 1: §9 windowed rescue. Fallback and the rescue's stats are
	// reported only when the rescue actually examined something — a
	// rescue killed at its first context poll contributed nothing.
	if rescueWorthwhile(bs.Status) && g.NumOps() > fallbackWindow {
		guardRung(cfg.Probe, tag, &bs, func() {
			rctx, cancel := rescueCtx(ctx, start)
			defer cancel()
			w := FindBestCutWindowedCtx(rctx, g, cfg, fallbackWindow)
			if w.Stats.CutsConsidered > 0 || w.Found {
				bs.Fallback = true
				bs.Status = worse(bs.Status, w.Status)
				res.Stats.add(w.Stats)
				if w.Found && (!res.Found || w.Est.Merit > res.TotalMerit) {
					adopt(w.Cut, w.Est, RungWindowed)
				}
			}
			// Adoption precedes the probe so an injected fault at the
			// rescue site cannot discard a rescue already computed.
			cfg.Probe.Rescue(tag, w.Found, w.Est.Merit, w.Stats.CutsConsidered)
		})
	}

	// Rung 2: greedy last resort, only when the block is otherwise
	// empty-handed for an abnormal reason (an Exhaustive not-found is
	// proof that no positive-merit cut exists). Runs even under a
	// canceled context: it is O(E) straight-line work, not a search.
	if !res.Found && bs.Status != Exhaustive {
		guardRung(cfg.Probe, tag, &bs, func() {
			cut, est, cands, found := greedyRescue(g, cfg)
			if found {
				adopt(cut, est, RungGreedy)
			}
			// Adoption precedes the probe so an injected fault at the
			// greedy site cannot discard a rescue already computed.
			cfg.Probe.Greedy(tag, found, est.Merit, int64(cands))
		})
	}

	guardRung(cfg.Probe, tag, &bs, func() {
		endMerit := int64(-1)
		if res.Found {
			endMerit = res.TotalMerit
		}
		cfg.Probe.SearchEnd(tag, int64(bs.Status), endMerit, exactCuts)
	})
	return res, bs
}

// searchBlockSafe is searchBlock with the §6.1 single-cut search at
// rung 0, its answer returned as a Result.
func searchBlockSafe(ctx context.Context, g *dfg.Graph, cfg Config) (Result, BlockStatus) {
	mr, bs := searchBlock(ctx, g, cfg, func(ctx context.Context, cfg Config) MultiResult {
		r := FindBestCutCtx(ctx, g, cfg)
		mr := MultiResult{Found: r.Found, TotalMerit: r.Est.Merit, Stats: r.Stats, Status: r.Status, Err: r.Err}
		if r.Found {
			mr.Cuts, mr.Ests = []dfg.Cut{r.Cut}, []Estimate{r.Est}
		}
		return mr
	})
	r := Result{Found: mr.Found, Stats: mr.Stats, Status: mr.Status, Err: mr.Err}
	if mr.Found {
		r.Cut, r.Est = mr.Cuts[0], mr.Ests[0]
	}
	return r, bs
}

// searchBlockMultiSafe is searchBlock with the §6.2 search for m cuts at
// rung 0; rung 1 rescues it as it does §6.1's.
func searchBlockMultiSafe(ctx context.Context, g *dfg.Graph, m int, cfg Config) (MultiResult, BlockStatus) {
	return searchBlock(ctx, g, cfg, func(ctx context.Context, cfg Config) MultiResult {
		return FindBestCutsCtx(ctx, g, m, cfg)
	})
}

// cutsLegal revalidates a multi-cut answer: every cut must be Legal.
func cutsLegal(g *dfg.Graph, cuts []dfg.Cut, nin, nout int) bool {
	if len(cuts) == 0 {
		return false
	}
	for _, c := range cuts {
		if len(c) == 0 {
			continue
		}
		if !legalCut(g, c, nin, nout) {
			return false
		}
	}
	return true
}
