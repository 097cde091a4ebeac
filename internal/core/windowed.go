package core

import (
	"context"

	"isex/internal/dfg"
)

// FindBestCutWindowed is the heuristic §9 sketches for very large basic
// blocks ("we plan to build heuristic solutions around the presented
// identification algorithm"): the exact search runs on overlapping
// topological windows of at most `window` nodes (stride window/2), and
// the best cut over all windows is returned. Every candidate stays a
// legal cut of the *full* graph — the window only restricts which nodes
// may join, while IN/OUT and convexity are evaluated against the whole
// block — so the result is always sound, merely possibly sub-optimal.
//
// The search cost drops from O(2^N) to O((N/window) · 2^window); the
// benches measure the quality/effort trade-off on the blocks the exact
// search cannot finish.
func FindBestCutWindowed(g *dfg.Graph, cfg Config, window int) Result {
	return FindBestCutWindowedCtx(context.Background(), g, cfg, window)
}

// FindBestCutWindowedCtx is FindBestCutWindowed under a context: the
// deadline is checked between windows (and inside each window's search),
// and on expiry the best cut over the windows completed so far is
// returned with Status set accordingly.
func FindBestCutWindowedCtx(ctx context.Context, g *dfg.Graph, cfg Config, window int) Result {
	// The explicit window argument wins: a caller-supplied cfg.Window
	// would otherwise be forwarded into each per-window FindBestCutCtx
	// (the Restrict views share the full graph's NumOps) and re-enter
	// this heuristic inside every window. Workers and WarmStart are
	// likewise stripped: the windows are small enough that spinning a
	// worker pool (or a recursive warm-start pass) per window costs more
	// than it saves, and the §9 rescue path must stay allocation-light.
	cfg.Window = 0
	cfg.Workers = 0
	cfg.WarmStart = false
	// Per-window sub-searches feed the metrics but never the flight
	// recorder: a rescue pass would otherwise flood the rings with events
	// indistinguishable from the main search's.
	cfg.Probe = cfg.Probe.MetricsOnly()
	// A seed-book cut need not be legal on a Restrict view (its
	// members may fall outside the window), so the windows run cold.
	// The racer's full-graph bound is likewise unsound on a window — a
	// window may genuinely contain nothing that beats it.
	cfg = cfg.stripSeed()
	cfg.race = nil
	// A seed book keyed by full-graph fingerprints must not collect (or
	// serve) Restrict-view cuts.
	cfg.Seeds = nil
	n := g.NumOps()
	if window <= 0 || window >= n {
		return FindBestCutCtx(ctx, g, cfg)
	}
	stride := window / 2
	if stride < 1 {
		stride = 1
	}
	var best Result
	for lo := 0; lo < n; lo += stride {
		if err := ctx.Err(); err != nil {
			best.Status = worse(best.Status, statusOfCtx(err))
			break
		}
		hi := lo + window
		if hi > n {
			hi = n
		}
		view := g.Restrict(lo, hi)
		r := FindBestCutCtx(ctx, view, cfg)
		best.Stats.add(r.Stats)
		best.Status = worse(best.Status, r.Status)
		if r.Found && (!best.Found || r.Est.Merit > best.Est.Merit) {
			best.Found = true
			best.Cut = r.Cut
			best.Est = r.Est
		}
		if hi == n {
			break
		}
	}
	best.Stats.Aborted = best.Status != Exhaustive
	return best
}
