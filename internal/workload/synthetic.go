package workload

import (
	"math/rand"

	"isex/internal/dfg"
	"isex/internal/ir"
)

// SyntheticSpec parameterizes random dataflow-graph generation for the
// scalability experiments (Fig. 8 uses real blocks from 2 to ~100 nodes;
// the synthetic generator extends the population and provides controlled
// shapes for ablation benches).
type SyntheticSpec struct {
	Ops int
	// BarrierRatio in [0,1]: fraction of nodes that are loads (forbidden).
	BarrierRatio float64
	// FanoutBias in [0,1]: probability that an operand is drawn from the
	// most recent few values (chain-like graphs) rather than uniformly
	// (DAG-like graphs with wide fanout).
	FanoutBias float64
	// LiveOuts is how many values are kept live out of the block.
	LiveOuts int
	Seed     int64
}

// Synthesize builds a random single-block function per spec and returns
// its graph. The block's Freq is 1.
func Synthesize(spec SyntheticSpec) *dfg.Graph {
	rng := rand.New(rand.NewSource(spec.Seed))
	b := ir.NewBuilder("synth", 4)
	vals := append([]ir.Reg{}, b.Fn.Params...)
	pick := func() ir.Reg {
		if rng.Float64() < spec.FanoutBias {
			lo := len(vals) - 3
			if lo < 0 {
				lo = 0
			}
			return vals[lo+rng.Intn(len(vals)-lo)]
		}
		return vals[rng.Intn(len(vals))]
	}
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpAShr, ir.OpLShr, ir.OpMin, ir.OpMax, ir.OpEq, ir.OpLt, ir.OpSelect}
	for i := 0; i < spec.Ops; i++ {
		if rng.Float64() < spec.BarrierRatio {
			vals = append(vals, b.Load(pick()))
			continue
		}
		op := ops[rng.Intn(len(ops))]
		switch op.Info().Arity {
		case 3:
			vals = append(vals, b.Op(op, pick(), pick(), pick()))
		case 2:
			vals = append(vals, b.Op(op, pick(), pick()))
		default:
			vals = append(vals, b.Op(ir.OpNeg, pick()))
		}
	}
	// Keep LiveOuts random values alive via a consumer block.
	next := b.NewBlock("next")
	b.Jump(next)
	b.SetBlock(next)
	acc := vals[len(vals)-1]
	outs := spec.LiveOuts
	if outs < 1 {
		outs = 1
	}
	for i := 0; i < outs; i++ {
		acc = b.Op(ir.OpXor, acc, vals[rng.Intn(len(vals))])
	}
	b.Ret(acc)
	f := b.Finish()
	f.Entry().Freq = 1
	return dfg.Build(f, f.Entry(), ir.Liveness(f))
}

// RealBlockGraphs compiles every kernel of the suite, profiles it, and
// returns the graphs of all executed basic blocks (the Fig. 8
// population), keyed for reporting.
type BlockInfo struct {
	Kernel string
	Fn     string
	Block  string
	Graph  *dfg.Graph
}

// RealBlockGraphs returns the per-block graphs of the whole suite.
func RealBlockGraphs() ([]BlockInfo, error) {
	var out []BlockInfo
	for _, k := range All() {
		m, err := k.Prepare()
		if err != nil {
			return nil, err
		}
		for _, f := range m.Funcs {
			li := ir.Liveness(f)
			for _, b := range f.Blocks {
				out = append(out, BlockInfo{Kernel: k.Name, Fn: f.Name, Block: b.Name, Graph: dfg.Build(f, b, li)})
			}
		}
	}
	return out, nil
}
