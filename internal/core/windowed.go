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
	// Workers is stripped: the windows are small enough that spinning a
	// worker pool per window costs more than it saves, and the §9 rescue
	// path must stay allocation-light.
	cfg.Workers = 0
	// Per-window sub-searches keep the injector but never reach the
	// flight recorder: each window would otherwise close a lane of its
	// own under the block's span, and the block's recorded prune and
	// bound totals would mix the windows' work into the exact search's.
	cfg.Probe = cfg.Probe.MetricsOnly()
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
