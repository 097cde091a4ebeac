// Package baseline implements the two state-of-the-art identification
// algorithms the paper compares against in §8:
//
//   - MaxMISO (Alippi, Fornaciari, Pozzi, Sami — DATE 1999, ref. 13): a
//     linear-time decomposition of the dataflow graph into maximal
//     single-output, unbounded-input subgraphs.
//   - Clubbing (Baleani et al. — CODES 2002, ref. 16): a greedy
//     linear-time clustering that grows "clubs" under explicit input and
//     output count limits.
//
// Both reuse the merit model of package core so the comparison in the
// Fig. 11 harness is apples-to-apples.
package baseline

import (
	"sort"

	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/greedy"
	"isex/internal/ir"
)

// MaxMISODecompose partitions the non-forbidden operation nodes of g into
// maximal single-output subgraphs (MISOs). The algorithm itself lives in
// internal/greedy so that core's degradation ladder can reuse it; this
// wrapper keeps the historical baseline API.
func MaxMISODecompose(g *dfg.Graph) []dfg.Cut {
	return greedy.MaxMISODecompose(g)
}

// SelectMaxMISO selects up to ninstr MaxMISOs across all blocks, best
// merit first. MISOs have one output by construction but unbounded
// inputs; a MISO wider than Nin cannot be shrunk (maximality is the
// defining property), so it is simply discarded — exactly the weakness
// §8 discusses on adpcmdecode (M1 is invisible inside the 3-input MISO
// M2 when Nin=2). Nout < 1 selects nothing.
func SelectMaxMISO(m *ir.Module, ninstr int, cfg core.Config) core.SelectionResult {
	res := core.SelectionResult{}
	if ninstr < 1 || cfg.Nout < 1 {
		return res
	}
	model := cfg.Model
	type cand struct {
		sel core.Selected
	}
	var cands []cand
	for _, f := range m.Funcs {
		li := ir.Liveness(f)
		for _, b := range f.Blocks {
			g := dfg.Build(f, b, li)
			res.IdentCalls++
			for _, c := range MaxMISODecompose(g) {
				est := core.Evaluate(g, c, modelOrDefault(model))
				if est.In > cfg.Nin || est.Merit <= 0 {
					continue
				}
				cands = append(cands, cand{sel: core.Selected{
					Fn: f, Block: b, InstrIndexes: instrIndexes(g, c), Est: est,
					ChosenAt: -1,
				}})
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].sel.Est.Merit > cands[j].sel.Est.Merit
	})
	if len(cands) > ninstr {
		cands = cands[:ninstr]
	}
	for _, c := range cands {
		res.Instructions = append(res.Instructions, c.sel)
		res.TotalMerit += c.sel.Est.Merit
	}
	return res
}
