package baseline

import (
	"sort"

	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/greedy"
	"isex/internal/ir"
	"isex/internal/latency"
)

func modelOrDefault(m *latency.Model) *latency.Model {
	if m != nil {
		return m
	}
	return latency.Default()
}

func instrIndexes(g *dfg.Graph, c dfg.Cut) []int {
	var out []int
	for _, id := range c {
		if g.Nodes[id].InstrIndex >= 0 {
			out = append(out, g.Nodes[id].InstrIndex)
		}
	}
	sort.Ints(out)
	return out
}

// Clubbing greedily clusters the operations of a graph into "clubs" under
// explicit n-input / m-output limits, following the linear-complexity
// scheme of Baleani et al. (ref. 16). The algorithm itself lives in
// internal/greedy so that core's degradation ladder can reuse it; this
// wrapper keeps the historical baseline API.
func Clubbing(g *dfg.Graph, nin, nout int) []dfg.Cut {
	return greedy.Clubbing(g, nin, nout)
}

// SelectClubbing selects up to ninstr clubs across all blocks, best merit
// first, under the (Nin, Nout) limits of cfg.
func SelectClubbing(m *ir.Module, ninstr int, cfg core.Config) core.SelectionResult {
	res := core.SelectionResult{}
	if ninstr < 1 || cfg.Nout < 1 {
		return res
	}
	var cands []core.Selected
	for _, f := range m.Funcs {
		li := ir.Liveness(f)
		for _, b := range f.Blocks {
			g := dfg.Build(f, b, li)
			res.IdentCalls++
			for _, c := range Clubbing(g, cfg.Nin, cfg.Nout) {
				est := core.Evaluate(g, c, modelOrDefault(cfg.Model))
				if est.Merit <= 0 {
					continue
				}
				cands = append(cands, core.Selected{
					Fn: f, Block: b, InstrIndexes: instrIndexes(g, c), Est: est,
					ChosenAt: -1,
				})
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].Est.Merit > cands[j].Est.Merit
	})
	if len(cands) > ninstr {
		cands = cands[:ninstr]
	}
	for _, c := range cands {
		res.Instructions = append(res.Instructions, c)
		res.TotalMerit += c.Est.Merit
	}
	return res
}
