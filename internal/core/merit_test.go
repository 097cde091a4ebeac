package core

import (
	"math/rand"
	"testing"

	"isex/internal/dfg"
	"isex/internal/ir"
	"isex/internal/workload"
)

// TestEvaluateMatchesKernel: Evaluate reads IN, OUT and the component
// count from the cut members' edge lists; on every block of the 12
// kernels they equal the §5 constraint kernel's Inputs, Outputs and
// Components. The cuts checked are those the iterative selection picks
// at 2/1, 4/2 and 8/4, and random member sets, on each block's graph and
// on the graph with the picked cut collapsed.
func TestEvaluateMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	model := defaultModel
	check := func(label string, g *dfg.Graph, c dfg.Cut) {
		t.Helper()
		est := Evaluate(g, c, model)
		if in, out, comps := g.Inputs(c), g.Outputs(c), g.Components(c); est.In != in || est.Out != out || est.Components != comps {
			t.Errorf("%s: cut %v: Evaluate in/out/components = %d/%d/%d, kernel %d/%d/%d",
				label, c, est.In, est.Out, est.Components, in, out, comps)
		}
	}
	// randomCuts checks sets of g's operation nodes, each node joining
	// with probability 1/2, 1/4 or 1/8.
	randomCuts := func(label string, g *dfg.Graph) {
		t.Helper()
		for trial := 0; trial < 12; trial++ {
			var c dfg.Cut
			for _, id := range g.OpOrder {
				if rng.Intn(2<<(trial%3)) == 0 {
					c = append(c, id)
				}
			}
			check(label, g, c)
		}
	}
	checked := 0
	for _, k := range workload.All() {
		m, err := k.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		graphs, err := dfg.BuildAll(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				randomCuts(k.Name+"/"+b.Name, graphs[b])
			}
		}
		for _, p := range []struct{ nin, nout int }{{2, 1}, {4, 2}, {8, 4}} {
			cfg := Config{Nin: p.nin, Nout: p.nout, PruneInputs: true, PruneMerit: true, MaxCuts: 100_000}
			for _, sel := range SelectIterative(m, 4, cfg).Instructions {
				g := graphs[sel.Block]
				c := cutOfInstrs(g, sel.InstrIndexes)
				label := k.Name + "/" + sel.Block.Name
				check(label, g, c)
				checked++
				cg, err := g.Collapse(c, "picked", sel.Est.HWCycles)
				if err != nil {
					t.Fatalf("%s: collapsing the picked cut %v: %v", label, c, err)
				}
				randomCuts(label+" collapsed", cg)
			}
		}
	}
	t.Logf("checked %d picked cuts", checked)
	if checked == 0 {
		t.Fatal("the selections picked no cut")
	}
}

// cutOfInstrs returns the operation nodes of g at the given instruction
// positions.
func cutOfInstrs(g *dfg.Graph, instrs []int) dfg.Cut {
	var c dfg.Cut
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind == dfg.KindOp && n.Op != ir.OpInvalid {
			for _, ix := range instrs {
				if n.InstrIndex == ix {
					c = append(c, n.ID)
				}
			}
		}
	}
	return c
}
