package baseline

import (
	"fmt"
	"sort"

	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/ir"
)

// Recurrence implements the template-generation school the paper argues
// against in §3/§4 (Kastner et al., ref. 10; Choi et al., ref. 9):
// clusters are grown by repeatedly contracting the *most frequent*
// producer→consumer opcode pair across the whole program, so only
// patterns that recur often become instruction candidates. The paper's
// observation — such methods rarely grow clusters beyond 3–4 operations
// and ignore port constraints until selection time — is reproduced by
// the tests and the comparison harness.

// recCluster is a growing cluster in one block's graph.
type recCluster struct {
	g     *dfg.Graph
	block *ir.Block
	fn    *ir.Function
	nodes dfg.Cut
	// sig is the cluster's opcode signature (sorted mnemonics), used for
	// recurrence counting.
	sig string
}

// pairKey identifies a producer→consumer signature pair.
type pairKey struct{ from, to string }

// Bounds of the growth: a pair is merged only if it appears at least
// minPairCount times program-wide (a pattern seen once is not
// "recurrent"), in at most maxMergeRounds merge rounds.
const (
	minPairCount   = 2
	maxMergeRounds = 8
)

// SelectRecurrence builds clusters by recurrent-pair contraction and then
// selects the best ones that happen to satisfy the port constraints.
func SelectRecurrence(m *ir.Module, ninstr int, cfg core.Config) core.SelectionResult {
	res := core.SelectionResult{}
	if ninstr < 1 {
		return res
	}
	// One cluster per non-forbidden node initially.
	var clusters []*recCluster
	clusterOf := map[*dfg.Graph]map[int]*recCluster{}
	var graphs []*dfg.Graph
	for _, f := range m.Funcs {
		li := ir.Liveness(f)
		for _, b := range f.Blocks {
			g, err := dfg.Build(f, b, li)
			if err != nil {
				continue // malformed block contributes no clusters
			}
			graphs = append(graphs, g)
			clusterOf[g] = map[int]*recCluster{}
			res.IdentCalls++
			for _, id := range g.OpOrder {
				n := &g.Nodes[id]
				if n.Forbidden || n.Op == ir.OpConst {
					continue // constants join their consumer's cluster later
				}
				c := &recCluster{g: g, block: b, fn: f, nodes: dfg.Cut{id}, sig: n.Op.String()}
				clusters = append(clusters, c)
				clusterOf[g][id] = c
			}
		}
	}
	// Iteratively merge the most recurrent adjacent signature pair.
	for round := 0; round < maxMergeRounds; round++ {
		counts := map[pairKey]int{}
		for _, g := range graphs {
			for id, c := range clusterOf[g] {
				for _, s := range g.Nodes[id].Succs {
					sc, ok := clusterOf[g][s]
					if !ok || sc == c {
						continue
					}
					counts[pairKey{c.sig, sc.sig}]++
				}
			}
		}
		bestPair, bestCount := pairKey{}, 0
		var keys []pairKey
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].from != keys[j].from {
				return keys[i].from < keys[j].from
			}
			return keys[i].to < keys[j].to
		})
		for _, k := range keys {
			if counts[k] > bestCount {
				bestPair, bestCount = k, counts[k]
			}
		}
		if bestCount < minPairCount {
			break
		}
		// Contract every instance of the winning pair (greedy, convexity-
		// checked so clusters stay collapsible).
		for _, g := range graphs {
			trial := g.NewSet()
			for id, c := range clusterOf[g] {
				if c.sig != bestPair.from {
					continue
				}
				for _, s := range g.Nodes[id].Succs {
					sc, ok := clusterOf[g][s]
					if !ok || sc == c || sc.sig != bestPair.to {
						continue
					}
					trial = g.SetOf(c.nodes, trial)
					for _, nid := range sc.nodes {
						trial.Set(nid)
					}
					if !g.ConvexSet(trial) {
						continue
					}
					merged := append(append(dfg.Cut{}, c.nodes...), sc.nodes...)
					c.nodes = merged
					c.sig = signature(g, merged)
					for _, nid := range sc.nodes {
						clusterOf[g][nid] = c
					}
					sc.nodes = nil // dead cluster
					break
				}
			}
		}
	}
	// Absorb constant producers into their (single) consuming cluster.
	for _, g := range graphs {
		for _, id := range g.OpOrder {
			n := &g.Nodes[id]
			if n.Op != ir.OpConst || n.Forbidden {
				continue
			}
			var target *recCluster
			uniform := true
			for _, s := range n.Succs {
				sc, ok := clusterOf[g][s]
				if !ok {
					uniform = false
					break
				}
				if target == nil {
					target = sc
				} else if target != sc {
					uniform = false
					break
				}
			}
			if uniform && target != nil && len(target.nodes) > 0 {
				target.nodes = append(target.nodes, id)
			}
		}
	}
	// Select the best clusters that meet the port constraints.
	var cands []core.Selected
	for _, c := range clusters {
		if len(c.nodes) == 0 {
			continue
		}
		if !c.g.Legal(c.nodes, cfg.Nin, cfg.Nout) {
			continue
		}
		est := core.Evaluate(c.g, c.nodes, modelOrDefault(cfg.Model))
		if est.Merit <= 0 {
			continue
		}
		cands = append(cands, core.Selected{
			Fn: c.fn, Block: c.block,
			InstrIndexes: instrIndexes(c.g, c.nodes), Est: est,
			ChosenAt: -1,
		})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Est.Merit > cands[j].Est.Merit })
	// De-duplicate overlapping selections within a block (clusters are
	// disjoint by construction, so a plain cap suffices).
	if len(cands) > ninstr {
		cands = cands[:ninstr]
	}
	for _, c := range cands {
		res.Instructions = append(res.Instructions, c)
		res.TotalMerit += c.Est.Merit
	}
	return res
}

// signature is the sorted opcode multiset of a cluster.
func signature(g *dfg.Graph, c dfg.Cut) string {
	ops := make([]string, len(c))
	for i, id := range c {
		ops[i] = g.Nodes[id].Op.String()
	}
	sort.Strings(ops)
	return fmt.Sprint(ops)
}
