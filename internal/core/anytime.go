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
//	rung 2  ISEGEN-style iterative racer adoption (Config.ISEGen): the
//	        Kernighan–Lin toggle engine that raced the exact search is
//	        halted and its best Legal/Evaluate-revalidated incumbent
//	        adopted — only when the exact search did not terminate
//	rung 3  greedy last resort: clubbing + MaxMISO candidates revalidated
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
	// Stalled: the engine watchdog found a worker making no poll
	// progress and re-split its subproblem; the result is sound but the
	// stalled subtree may not have been searched exhaustively.
	Stalled
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
	case Stalled:
		return "stalled"
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
	// RungIterative: the ISEGEN-style Kernighan–Lin racer's best
	// revalidated incumbent supplied the answer (Config.ISEGen; only ever
	// when the exact search did not terminate).
	RungIterative
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
	case RungIterative:
		return "iterative"
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
	// RacerMerit is the best merit the iterative racer proved achievable
	// for the block (Config.ISEGen), whether or not its answer was
	// adopted; ≤ 0 when no racer ran or it published nothing (the block
	// searchers initialize it to -1, other constructors leave 0 — racer
	// merits are always positive).
	RacerMerit int64
	// Gap is (optimum − RacerMerit) / optimum, measured only on blocks
	// where the exact search terminated with a proven optimum while a
	// racer published an incumbent; GapKnown reports that both sides are
	// available. This is the quality metric of the racer heuristic.
	Gap      float64
	GapKnown bool
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
	if s.RacerMerit > dst.RacerMerit {
		dst.RacerMerit = s.RacerMerit
	}
	if s.GapKnown && !dst.GapKnown {
		dst.GapKnown, dst.Gap = true, s.Gap
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
// search. Recovered and Stalled are included — the exact answer may be
// missing or partial through no fault of the block.
func rescueWorthwhile(s SearchStatus) bool {
	switch s {
	case BudgetStopped, DeadlineExceeded, Stalled, Recovered:
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

// ctxCheckInterval is the number of 1-branches between context polls in
// the search loops: rare enough to cost nothing, frequent enough that an
// expired deadline is noticed within microseconds. Must be a power of two.
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

// searchBlockSafe runs single-cut identification on one block down the
// degradation ladder: the exact anytime search, then (when it tripped or
// failed) the §9 windowed rescue under a grace context, then the greedy
// last resort. Every rung is panic-guarded individually, so any fault —
// including one injected inside a probe site — degrades the answer
// instead of losing it; the final backstop keeps a result only if its
// cut revalidates as Legal.
func searchBlockSafe(ctx context.Context, g *dfg.Graph, cfg Config) (res Result, bs BlockStatus) {
	// Admission gate (Config.Pool): one slot per in-flight block search,
	// acquired for exactly the duration of this search — the holder never
	// blocks on the pool again (cfg.Pool is cleared), so gating cannot
	// deadlock.
	if cfg.Pool != nil {
		pool := cfg.Pool
		cfg.Pool = nil
		pool.Acquire()
		defer pool.Release()
	}
	start := time.Now()
	bs = BlockStatus{Fn: g.Fn.Name, Block: g.Block.Name, RacerMerit: -1}
	tag := bs.Fn + "/" + bs.Block
	// Every block search owns one causal span: the racer, the rescue
	// rungs, the engine's worker rings and the sub-searches all inherit
	// the sub-probe, so their events group under this search in the
	// analyzer's span tree. One atomic add per block search.
	cfg.Probe = cfg.Probe.Sub()
	// The iterative racer (Config.ISEGen) starts together with the exact
	// search and races rungs 0–1 on its own goroutine; nil when the block
	// does not qualify. The deferred halt is the backstop for panics that
	// skip the adoption rung (halt is idempotent).
	rh := raceISEGen(ctx, g, cfg, tag)
	if rh != nil {
		defer rh.halt()
	}
	defer func() {
		// Backstop for panics escaping the rung guards themselves
		// (including a fault injected at the SearchEnd site below): keep
		// the answer when it revalidates, never report an illegal cut.
		if r := recover(); r != nil {
			bs.Status = worse(bs.Status, Recovered)
			if bs.Err == nil {
				bs.Err = panicErr(tag, r)
			}
			if res.Found && !legalCut(g, res.Cut, cfg.Nin, cfg.Nout) {
				res = Result{}
			}
		}
		res.Status = bs.Status
	}()

	// Rung 0: exact B&B (serial, engine or windowed per cfg).
	guardRung(cfg.Probe, tag, &bs, func() {
		if h := cfg.Probe.HookOf(); h != nil {
			h(bs.Fn, bs.Block)
		}
		cfg.Probe.SearchBegin(tag, g.NumOps(), cfg.Workers)
		runCfg := cfg
		runCfg.race = rh // only rung 0 sees the racer's shared bound
		res = FindBestCutCtx(ctx, g, runCfg)
		bs.Status = res.Status
		if bs.Err == nil {
			bs.Err = res.Err
		}
	})

	// Rung 1: §9 windowed rescue. Fallback and the rescue's stats are
	// reported only when the rescue actually examined something — a
	// rescue killed at its first context poll contributed nothing.
	if rescueWorthwhile(bs.Status) && cfg.Window == 0 && g.NumOps() > fallbackWindow {
		guardRung(cfg.Probe, tag, &bs, func() {
			rctx, cancel := rescueCtx(ctx, start)
			defer cancel()
			w := FindBestCutWindowedCtx(rctx, g, cfg, fallbackWindow)
			if w.Stats.CutsConsidered > 0 || w.Found {
				bs.Fallback = true
				bs.Status = worse(bs.Status, w.Status)
				res.Stats.add(w.Stats)
				if w.Found && (!res.Found || w.Est.Merit > res.Est.Merit) {
					res.Found, res.Cut, res.Est = true, w.Cut, w.Est
					bs.Rung = RungWindowed
				}
			}
			// Adoption precedes the probe so an injected fault at the
			// rescue site cannot discard a rescue already computed.
			cfg.Probe.Rescue(tag, w.Found, w.Est.Merit, w.Stats.CutsConsidered)
			if rh != nil && w.Found {
				rh.donate(w.Cut) // the rescue cut is a fresh racer seed
			}
		})
	}

	// Rung 2: iterative racer adoption (Config.ISEGen). The racer is
	// halted and its outcome recorded in every case; its answer replaces
	// the exact rungs' only when the exact search did not terminate —
	// exact completion always overrides with the proven optimum, which
	// keeps terminating blocks bit-identical to a racer-less run.
	if rh != nil {
		guardRung(cfg.Probe, tag, &bs, func() {
			cut, est, ok := rh.settle(g, cfg, &bs, res.Est.Merit, res.Found)
			if err := rh.failure(); err != nil && res.Err == nil {
				res.Err = err
			}
			if ok && (!res.Found || est.Merit > res.Est.Merit) {
				prev := int64(-1)
				if res.Found {
					prev = res.Est.Merit
				}
				res.Found, res.Cut, res.Est = true, cut, est
				bs.Rung = RungIterative
				// Adoption precedes the probe so an injected fault at the
				// racer site cannot discard an answer already adopted.
				cfg.Probe.RacerAdopt(tag, est.Merit, prev)
			}
		})
	}

	// Rung 3: greedy last resort, only when the block is otherwise
	// empty-handed for an abnormal reason (an Exhaustive not-found is
	// proof that no positive-merit cut exists). Runs even under a
	// canceled context: it is O(E) straight-line work, not a search.
	if !res.Found && bs.Status != Exhaustive {
		guardRung(cfg.Probe, tag, &bs, func() {
			cut, est, cands, found := greedyRescue(g, cfg)
			if found {
				res.Found, res.Cut, res.Est = true, cut, est
				bs.Rung = RungGreedy
			}
			// Adoption precedes the probe so an injected fault at the
			// greedy site cannot discard a rescue already computed.
			cfg.Probe.Greedy(tag, found, est.Merit, int64(cands))
		})
	}

	guardRung(cfg.Probe, tag, &bs, func() {
		endMerit := int64(-1)
		if res.Found {
			endMerit = res.Est.Merit
		}
		cfg.Probe.SearchEnd(tag, int64(bs.Status), endMerit, res.Stats.CutsConsidered)
	})
	return res, bs
}

// SearchBlockCtx runs single-cut identification on one block graph down
// the full degradation ladder — exact search, §9 windowed rescue, the
// iterative racer (Config.ISEGen), greedy last resort — and reports both
// the result and the per-block status. It is the single-block entry point
// the benches and external drivers use; the selection pipeline's per-block
// searches go through the identical path, so anything measured here is
// what selection pays.
func SearchBlockCtx(ctx context.Context, g *dfg.Graph, cfg Config) (Result, BlockStatus) {
	return searchBlockSafe(ctx, g, cfg)
}

// searchBlockMultiSafe is searchBlockSafe for the multiple-cut search of
// §6.2. The windowed rescue and the greedy rung contribute a single cut
// (a valid 1-of-m assignment) when they beat the exact search's best
// assignment.
func searchBlockMultiSafe(ctx context.Context, g *dfg.Graph, m int, cfg Config) (res MultiResult, bs BlockStatus) {
	// Admission gate, exactly as in searchBlockSafe.
	if cfg.Pool != nil {
		pool := cfg.Pool
		cfg.Pool = nil
		pool.Acquire()
		defer pool.Release()
	}
	start := time.Now()
	bs = BlockStatus{Fn: g.Fn.Name, Block: g.Block.Name, RacerMerit: -1}
	tag := bs.Fn + "/" + bs.Block
	// One causal span per block search, exactly as in searchBlockSafe.
	cfg.Probe = cfg.Probe.Sub()
	// As in searchBlockSafe: the iterative racer races the exact search
	// and its single best cut can stand in as a 1-of-m assignment when
	// the exact search degrades.
	rh := raceISEGen(ctx, g, cfg, tag)
	if rh != nil {
		defer rh.halt()
	}
	defer func() {
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

	guardRung(cfg.Probe, tag, &bs, func() {
		if h := cfg.Probe.HookOf(); h != nil {
			h(bs.Fn, bs.Block)
		}
		cfg.Probe.SearchBegin(tag, g.NumOps(), cfg.Workers)
		runCfg := cfg
		runCfg.race = rh
		res = FindBestCutsCtx(ctx, g, m, runCfg)
		bs.Status = res.Status
		if bs.Err == nil {
			bs.Err = res.Err
		}
	})

	if rescueWorthwhile(bs.Status) && cfg.Window == 0 && g.NumOps() > fallbackWindow {
		guardRung(cfg.Probe, tag, &bs, func() {
			rctx, cancel := rescueCtx(ctx, start)
			defer cancel()
			w := FindBestCutWindowedCtx(rctx, g, cfg, fallbackWindow)
			if w.Stats.CutsConsidered > 0 || w.Found {
				bs.Fallback = true
				bs.Status = worse(bs.Status, w.Status)
				res.Stats.add(w.Stats)
				if w.Found && (!res.Found || w.Est.Merit > res.TotalMerit) {
					res.Found = true
					res.Cuts = []dfg.Cut{w.Cut}
					res.Ests = []Estimate{w.Est}
					res.TotalMerit = w.Est.Merit
					bs.Rung = RungWindowed
				}
			}
			// Adoption precedes the probe so an injected fault at the
			// rescue site cannot discard a rescue already computed.
			cfg.Probe.Rescue(tag, w.Found, w.Est.Merit, w.Stats.CutsConsidered)
			if rh != nil && w.Found {
				rh.donate(w.Cut) // the rescue cut is a fresh racer seed
			}
		})
	}

	// Iterative racer adoption, exactly as in searchBlockSafe: the
	// racer's single cut stands in as a 1-of-m assignment when it beats
	// the degraded exact answer; exact completion always overrides.
	if rh != nil {
		guardRung(cfg.Probe, tag, &bs, func() {
			cut, est, ok := rh.settle(g, cfg, &bs, res.TotalMerit, res.Found)
			if err := rh.failure(); err != nil && res.Err == nil {
				res.Err = err
			}
			if ok && (!res.Found || est.Merit > res.TotalMerit) {
				prev := int64(-1)
				if res.Found {
					prev = res.TotalMerit
				}
				res.Found = true
				res.Cuts = []dfg.Cut{cut}
				res.Ests = []Estimate{est}
				res.TotalMerit = est.Merit
				bs.Rung = RungIterative
				// Adoption precedes the probe so an injected fault at the
				// racer site cannot discard an answer already adopted.
				cfg.Probe.RacerAdopt(tag, est.Merit, prev)
			}
		})
	}

	if !res.Found && bs.Status != Exhaustive {
		guardRung(cfg.Probe, tag, &bs, func() {
			cut, est, cands, found := greedyRescue(g, cfg)
			if found {
				res.Found = true
				res.Cuts = []dfg.Cut{cut}
				res.Ests = []Estimate{est}
				res.TotalMerit = est.Merit
				bs.Rung = RungGreedy
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
		cfg.Probe.SearchEnd(tag, int64(bs.Status), endMerit, res.Stats.CutsConsidered)
	})
	return res, bs
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
