package core

import (
	"context"
	"math"
	"sort"

	"isex/internal/ir"
)

// SelectAreaConstrained implements the instruction-selection-under-area-
// constraint problem the paper names as future work (§9): choose custom
// instructions maximizing total merit subject to a silicon budget
// (normalized MAC-equivalents, like the latency model's Area).
//
// The algorithm first builds a candidate pool with the iterative
// identification of §6.3 (candidates are disjoint cuts, so any subset of
// the pool is jointly realizable), then solves the resulting 0/1
// knapsack exactly by dynamic programming over quantized areas.
// poolSize bounds the candidate pool (0 means 2×ninstr… callers usually
// pass something like 2–4× the instruction count so the knapsack has
// slack to trade big cuts for several small ones).
func SelectAreaConstrained(m *ir.Module, ninstr int, areaBudget float64, poolSize int, cfg Config) SelectionResult {
	return SelectAreaConstrainedCtx(context.Background(), m, ninstr, areaBudget, poolSize, cfg)
}

// SelectAreaConstrainedCtx is SelectAreaConstrained under a context: the
// candidate pool is built with SelectIterativeCtx (deadline-aware,
// panic-safe, windowed rescue), so the knapsack always has the best pool
// the budget allowed; the per-block statuses of the pool run carry over.
func SelectAreaConstrainedCtx(ctx context.Context, m *ir.Module, ninstr int, areaBudget float64, poolSize int, cfg Config) (res SelectionResult) {
	defer guardDriver(cfg.Probe, &res)
	if poolSize <= 0 {
		poolSize = 2 * ninstr
	}
	if poolSize < ninstr {
		poolSize = ninstr
	}
	pool := SelectIterativeCtx(ctx, m, poolSize, cfg)
	res = SelectionResult{Stats: pool.Stats, IdentCalls: pool.IdentCalls,
		Blocks: pool.Blocks, Status: pool.Status, FirstPanic: pool.FirstPanic}
	if areaBudget <= 0 || len(pool.Instructions) == 0 {
		return res
	}
	chosen := knapsack(pool.Instructions, areaBudget, ninstr)
	for _, s := range chosen {
		res.Instructions = append(res.Instructions, s)
		res.TotalMerit += s.Est.Merit
	}
	sortSelected(res.Instructions)
	return res
}

// areaQuantum is the area resolution of the knapsack DP.
const areaQuantum = 1.0 / 256

// knapsack picks at most ninstr candidates maximizing merit within the
// area budget. Exact over the quantized areas: each candidate's area is
// rounded *up*, so the budget is never exceeded.
func knapsack(cands []Selected, budget float64, ninstr int) []Selected {
	w := make([]int, len(cands))
	cap := int(math.Floor(budget/areaQuantum + 1e-9))
	for i, s := range cands {
		w[i] = int(math.Ceil(s.Est.Area/areaQuantum - 1e-9))
		if w[i] < 1 {
			w[i] = 1 // every real datapath occupies some area
		}
	}
	if ninstr > len(cands) {
		ninstr = len(cands)
	}
	if cap <= 0 || ninstr <= 0 {
		return nil
	}
	// dp[k][a] = best merit using ≤ k instructions and area ≤ a;
	// take[i][k][a] records the choice for reconstruction.
	type cell struct {
		merit int64
		take  bool
	}
	// Layered DP over candidates to keep reconstruction simple.
	layers := make([][][]cell, len(cands)+1)
	mk := func() [][]cell {
		g := make([][]cell, ninstr+1)
		for k := range g {
			g[k] = make([]cell, cap+1)
		}
		return g
	}
	layers[0] = mk()
	for i := 0; i < len(cands); i++ {
		cur := mk()
		prev := layers[i]
		for k := 0; k <= ninstr; k++ {
			for a := 0; a <= cap; a++ {
				best := prev[k][a].merit
				take := false
				if k > 0 && a >= w[i] {
					cand := prev[k-1][a-w[i]].merit + cands[i].Est.Merit
					if cand > best {
						best = cand
						take = true
					}
				}
				cur[k][a] = cell{merit: best, take: take}
			}
		}
		layers[i+1] = cur
	}
	// Reconstruct.
	var out []Selected
	k, a := ninstr, cap
	for i := len(cands); i > 0; i-- {
		if layers[i][k][a].take {
			out = append(out, cands[i-1])
			k--
			a -= w[i-1]
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Est.Merit > out[j].Est.Merit })
	return out
}
