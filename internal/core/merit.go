// Package core implements the paper's contribution: identification of
// maximal-speedup convex cuts of basic-block dataflow graphs under
// register-port constraints (§5–§6), and the two selection strategies
// (optimal, §6.2, and iterative, §6.3) that pick up to Ninstr custom
// instructions across all basic blocks of a program.
package core

import (
	"fmt"
	"sync"

	"isex/internal/dfg"
	"isex/internal/latency"
)

// Estimate is the merit M(S) of a cut and its ingredients (§7): the
// accumulated software latency of its operations, the ceiling of the
// hardware critical path as the latency of the new instruction, the
// cycles saved per execution, and that gain weighted by the block's
// dynamic execution count.
type Estimate struct {
	In, Out    int
	SWCycles   int64
	HWCycles   int
	Saved      int64
	Freq       int64
	Merit      int64
	Area       float64
	Components int
	Size       int
}

func (e Estimate) String() string {
	return fmt.Sprintf("size=%d in=%d out=%d sw=%d hw=%d saved=%d freq=%d merit=%d area=%.2f comps=%d",
		e.Size, e.In, e.Out, e.SWCycles, e.HWCycles, e.Saved, e.Freq, e.Merit, e.Area, e.Components)
}

// weight returns the profiling weight of a block (unprofiled blocks count
// as a single execution, so identification still works without a profile).
func weight(freq int64) int64 {
	if freq <= 0 {
		return 1
	}
	return freq
}

// evalScratch is Evaluate's reusable state: membership and visited
// bitsets, a component stack and a longest-path table indexed by node
// ID. Pooled so Evaluate — called once per candidate by the baselines and
// the enumerators — allocates nothing in steady state.
type evalScratch struct {
	in, seen dfg.BitSet
	stack    []int
	long     []float64
}

var evalPool = sync.Pool{New: func() any { return new(evalScratch) }}

func (s *evalScratch) fit(g *dfg.Graph) {
	if n := len(g.Nodes); len(s.long) < n {
		s.in, s.seen = dfg.NewBitSet(n), dfg.NewBitSet(n)
		s.long = make([]float64, n)
	} else {
		s.in.Reset()
		s.seen.Reset()
	}
}

// Evaluate computes the Estimate of an arbitrary cut. It is the reference
// (non-incremental) implementation; the search maintains the same
// quantities incrementally and is checked against this in tests. IN, OUT
// and the component count come from the members' edge lists, as §5
// defines them, so Evaluate never builds the graph's constraint tables:
// a selection calls it on every cut it keeps, and its graphs need no
// other query.
func Evaluate(g *dfg.Graph, c dfg.Cut, model *latency.Model) Estimate {
	sc := evalPool.Get().(*evalScratch)
	defer evalPool.Put(sc)
	sc.fit(g)
	for _, id := range c {
		sc.in.Set(id)
	}
	est := Estimate{Freq: g.Block.Freq, Size: len(c)}
	// seen marks the producers already counted as inputs, and then the
	// members already placed in a component: the two never overlap.
	for _, id := range c {
		if sc.seen.Has(id) {
			continue // a repeated member
		}
		sc.seen.Set(id)
		n := &g.Nodes[id]
		for _, p := range n.Preds {
			if !sc.in.Has(p) && !sc.seen.Has(p) {
				sc.seen.Set(p)
				est.In++
			}
		}
		for _, s := range n.Succs {
			if !sc.in.Has(s) {
				est.Out++
				break // count nodes, not edges
			}
		}
	}
	for _, id := range c {
		sc.seen.Unset(id)
	}
	// Weakly connected components over data edges inside the cut.
	stack := sc.stack[:0]
	for _, id := range c {
		if sc.seen.Has(id) {
			continue
		}
		est.Components++
		sc.seen.Set(id)
		stack = append(stack, id)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, adj := range [2][]int{g.Nodes[v].Preds, g.Nodes[v].Succs} {
				for _, w := range adj {
					if sc.in.Has(w) && !sc.seen.Has(w) {
						sc.seen.Set(w)
						stack = append(stack, w)
					}
				}
			}
		}
	}
	sc.stack = stack
	// Software cost: plain sum of per-op latencies (single-issue, §7).
	for _, id := range c {
		est.SWCycles += int64(model.SW(g.Nodes[id].Op))
		est.Area += model.Area(g.Nodes[id].Op)
	}
	// Hardware cost: critical path over data edges within the cut.
	// Nodes are processed in reverse search order (producers before
	// consumers... search order has consumers first, so iterate OpOrder
	// backwards) accumulating longest paths. sc.long needs no zeroing:
	// a member's entry is written before any consumer (later in this
	// sweep) reads it, and only members are read.
	long := sc.long
	var crit float64
	for i := len(g.OpOrder) - 1; i >= 0; i-- {
		id := g.OpOrder[i]
		if !sc.in.Has(id) {
			continue
		}
		best := 0.0
		for _, p := range g.Nodes[id].Preds {
			if sc.in.Has(p) && long[p] > best {
				best = long[p]
			}
		}
		long[id] = best + model.HW(g.Nodes[id].Op)
		if long[id] > crit {
			crit = long[id]
		}
	}
	est.HWCycles = latency.CyclesOf(crit)
	// Any non-empty instruction occupies the pipeline for at least one
	// cycle, even if its datapath is shallower than a cycle.
	if est.Size > 0 && est.HWCycles < 1 {
		est.HWCycles = 1
	}
	est.Saved = est.SWCycles - int64(est.HWCycles)
	est.Merit = est.Saved * weight(est.Freq)
	return est
}
