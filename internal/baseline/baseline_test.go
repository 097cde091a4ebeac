package baseline

import (
	"math/rand"
	"testing"

	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/minic"
	"isex/internal/passes"
)

func randomGraph(t testing.TB, rng *rand.Rand, nOps int) *dfg.Graph {
	t.Helper()
	b := ir.NewBuilder("rand", 3)
	vals := append([]ir.Reg{}, b.Fn.Params...)
	pick := func() ir.Reg { return vals[rng.Intn(len(vals))] }
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpAShr}
	for i := 0; i < nOps; i++ {
		switch rng.Intn(8) {
		case 0:
			vals = append(vals, b.Const(int32(rng.Intn(64))))
		case 1:
			vals = append(vals, b.Load(pick()))
		default:
			vals = append(vals, b.Op(ops[rng.Intn(len(ops))], pick(), pick()))
		}
	}
	next := b.NewBlock("next")
	b.Jump(next)
	b.SetBlock(next)
	acc := vals[len(vals)-1]
	for i := 0; i < 2; i++ {
		acc = b.Op(ir.OpAdd, acc, vals[rng.Intn(len(vals))])
	}
	b.Ret(acc)
	f := b.Finish()
	return dfg.Build(f, f.Entry(), ir.Liveness(f))
}

func TestMaxMISOIsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(t, rng, 5+rng.Intn(15))
		cuts := MaxMISODecompose(g)
		seen := map[int]bool{}
		total := 0
		for _, c := range cuts {
			for _, id := range c {
				if seen[id] {
					t.Fatalf("trial %d: node %d in two MISOs", trial, id)
				}
				seen[id] = true
				if g.Nodes[id].Forbidden {
					t.Fatalf("trial %d: forbidden node in MISO", trial)
				}
			}
			total += len(c)
		}
		// Every non-forbidden op node must be covered.
		want := 0
		for _, id := range g.OpOrder {
			if !g.Nodes[id].Forbidden {
				want++
			}
		}
		if total != want {
			t.Fatalf("trial %d: MISOs cover %d of %d nodes", trial, total, want)
		}
	}
}

func TestMaxMISOSingleOutputAndConvex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(t, rng, 5+rng.Intn(15))
		for _, c := range MaxMISODecompose(g) {
			// Dead nodes (the random generator leaves some) yield 0-output
			// MISOs; live ones must have exactly one output.
			if out := g.Outputs(c); out > 1 {
				t.Fatalf("trial %d: MISO %v has %d outputs", trial, c, out)
			}
			if !g.Convex(c) {
				t.Fatalf("trial %d: MISO %v not convex", trial, c)
			}
		}
	}
}

func TestMaxMISOMaximality(t *testing.T) {
	// Adding any producer of the MISO that is itself assignable must break
	// the single-consumer property (i.e., that producer has uses outside).
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(t, rng, 12)
		cuts := MaxMISODecompose(g)
		inCut := map[int]int{}
		for ci, c := range cuts {
			for _, id := range c {
				inCut[id] = ci
			}
		}
		for ci, c := range cuts {
			member := map[int]bool{}
			for _, id := range c {
				member[id] = true
			}
			for _, id := range c {
				for _, p := range g.Nodes[id].Preds {
					pn := &g.Nodes[p]
					if pn.Kind != dfg.KindOp || pn.Forbidden || member[p] {
						continue
					}
					// p feeds MISO ci but is outside: it must have another
					// consumer outside ci (or an external output).
					extern := false
					for _, s := range pn.Succs {
						sn := &g.Nodes[s]
						if sn.Kind != dfg.KindOp || sn.Forbidden || inCut[s] != ci {
							extern = true
						}
					}
					if !extern {
						t.Fatalf("trial %d: MISO %d not maximal: producer %d absorbed nowhere", trial, ci, p)
					}
				}
			}
		}
	}
}

// TestMaxMISOChain: a pure chain is a single MISO.
func TestMaxMISOChain(t *testing.T) {
	b := ir.NewBuilder("chain", 2)
	v := b.Fn.Params[0]
	for i := 0; i < 5; i++ {
		v = b.Op(ir.OpAdd, v, b.Fn.Params[1])
	}
	b.Ret(v)
	f := b.Finish()
	g := dfg.Build(f, f.Entry(), ir.Liveness(f))
	cuts := MaxMISODecompose(g)
	if len(cuts) != 1 || len(cuts[0]) != 5 {
		t.Errorf("chain decomposition = %v", cuts)
	}
}

// TestMaxMISONinBlindness reproduces the M1/M2 effect of §8: a 3-input
// MISO hides its 2-input sub-cone, so at Nin=2 MaxMISO selects nothing
// while the exact search finds the inner cut.
func TestMaxMISONinBlindness(t *testing.T) {
	b := ir.NewBuilder("f", 3)
	p := b.Fn.Params
	inner := b.Op(ir.OpAdd, p[0], p[1])   // 2-input inner cut
	inner2 := b.Op(ir.OpShl, inner, p[0]) // still 2 inputs
	outer := b.Op(ir.OpSub, inner2, p[2]) // the MISO needs 3 inputs
	b.Ret(outer)
	f := b.Finish()
	g := dfg.Build(f, f.Entry(), ir.Liveness(f))

	cuts := MaxMISODecompose(g)
	if len(cuts) != 1 || len(cuts[0]) != 3 {
		t.Fatalf("expected one 3-node MISO, got %v", cuts)
	}
	if in := g.Inputs(cuts[0]); in != 3 {
		t.Fatalf("MISO inputs = %d", in)
	}
	// MaxMISO at Nin=2 finds nothing; the exact search does.
	m := &ir.Module{Funcs: []*ir.Function{f}}
	cfg := core.Config{Nin: 2, Nout: 1}
	mm := SelectMaxMISO(m, 4, cfg)
	if len(mm.Instructions) != 0 {
		t.Errorf("MaxMISO selected %d instructions at Nin=2", len(mm.Instructions))
	}
	exact := core.SelectIterative(m, 4, cfg)
	if len(exact.Instructions) == 0 {
		t.Error("exact search found nothing at Nin=2")
	}
}

func TestClubbingLegality(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(t, rng, 5+rng.Intn(15))
		for _, lim := range []struct{ nin, nout int }{{3, 2}, {2, 1}, {4, 3}} {
			for _, c := range Clubbing(g, lim.nin, lim.nout) {
				if !g.Legal(c, lim.nin, lim.nout) {
					t.Fatalf("trial %d: club %v illegal at (%d,%d): in=%d out=%d convex=%v",
						trial, c, lim.nin, lim.nout, g.Inputs(c), g.Outputs(c), g.Convex(c))
				}
			}
		}
	}
}

func TestClubbingCoversAllPureNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(t, rng, 14)
	cuts := Clubbing(g, 3, 2)
	covered := map[int]bool{}
	for _, c := range cuts {
		for _, id := range c {
			if covered[id] {
				t.Fatalf("node %d in two clubs", id)
			}
			covered[id] = true
		}
	}
	for _, id := range g.OpOrder {
		if !g.Nodes[id].Forbidden && !covered[id] {
			t.Errorf("node %d not in any club", id)
		}
	}
}

func TestClubbingMergesChains(t *testing.T) {
	b := ir.NewBuilder("chain", 2)
	v := b.Op(ir.OpAdd, b.Fn.Params[0], b.Fn.Params[1])
	v = b.Op(ir.OpXor, v, b.Fn.Params[0])
	v = b.Op(ir.OpShl, v, b.Fn.Params[1])
	b.Ret(v)
	f := b.Finish()
	g := dfg.Build(f, f.Entry(), ir.Liveness(f))
	cuts := Clubbing(g, 2, 1)
	if len(cuts) != 1 || len(cuts[0]) != 3 {
		t.Errorf("chain clubbing = %v", cuts)
	}
}

const benchSrc = `
int tab[8] = {2,4,6,8,10,12,14,16};
int out[8];
void kernel(int n) {
    int i;
    for (i = 0; i < n; i++) {
        int v = tab[i & 7];
        int w = ((v << 2) + v) ^ (v >> 1);
        int x = w > 50 ? 50 + (w & 3) : w;
        out[i & 7] = x;
    }
}
int main() { kernel(200); return out[1]; }
`

func prepModule(t *testing.T) *ir.Module {
	t.Helper()
	m, err := minic.Compile(benchSrc, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := passes.Run(m, passes.Options{}); err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(m)
	env.Profile = true
	if _, _, err := env.Call("main"); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestExactDominatesBaselines: the central comparison property of §8 —
// on any program and constraint set, the exact algorithms achieve at
// least the merit of both baselines.
func TestExactDominatesBaselines(t *testing.T) {
	m := prepModule(t)
	for _, c := range []struct{ nin, nout int }{{2, 1}, {4, 2}, {4, 3}, {8, 4}} {
		cfg := core.Config{Nin: c.nin, Nout: c.nout}
		for _, n := range []int{1, 4, 16} {
			exact := core.SelectIterative(m, n, cfg)
			club := SelectClubbing(m, n, cfg)
			miso := SelectMaxMISO(m, n, cfg)
			if exact.TotalMerit < club.TotalMerit {
				t.Errorf("(%d,%d,n=%d): iterative %d < clubbing %d",
					c.nin, c.nout, n, exact.TotalMerit, club.TotalMerit)
			}
			if exact.TotalMerit < miso.TotalMerit {
				t.Errorf("(%d,%d,n=%d): iterative %d < maxmiso %d",
					c.nin, c.nout, n, exact.TotalMerit, miso.TotalMerit)
			}
		}
	}
}

// TestBaselineSelectionsAreLegal: selected instructions respect ports.
func TestBaselineSelectionsAreLegal(t *testing.T) {
	m := prepModule(t)
	cfg := core.Config{Nin: 3, Nout: 2}
	for name, sel := range map[string]core.SelectionResult{
		"clubbing": SelectClubbing(m, 8, cfg),
		"maxmiso":  SelectMaxMISO(m, 8, cfg),
	} {
		for _, s := range sel.Instructions {
			if s.Est.In > cfg.Nin || s.Est.Out > cfg.Nout {
				t.Errorf("%s: selected in=%d out=%d beyond (%d,%d)",
					name, s.Est.In, s.Est.Out, cfg.Nin, cfg.Nout)
			}
			if s.Est.Merit <= 0 {
				t.Errorf("%s: non-positive merit selected", name)
			}
		}
	}
}

// TestBaselinePatchable: baseline selections can also be patched and
// preserve semantics.
func TestBaselinePatchable(t *testing.T) {
	m := prepModule(t)
	ref := prepModule(t)
	cfg := core.Config{Nin: 3, Nout: 2}
	sel := SelectClubbing(m, 4, cfg)
	if len(sel.Instructions) == 0 {
		t.Skip("clubbing found nothing")
	}
	if _, _, err := core.ApplySelection(m, sel.Instructions, nil); err != nil {
		t.Fatal(err)
	}
	for _, mod := range []*ir.Module{m, ref} {
		interp.ClearProfile(mod)
	}
	e1, e2 := interp.NewEnv(m), interp.NewEnv(ref)
	r1, _, err1 := e1.Call("main")
	r2, _, err2 := e2.Call("main")
	if err1 != nil || err2 != nil || r1 != r2 {
		t.Fatalf("patched clubbing diverges: %d/%v vs %d/%v", r1, err1, r2, err2)
	}
	o1, _ := e1.GlobalSlice("out")
	o2, _ := e2.GlobalSlice("out")
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("out[%d]: %d vs %d", i, o1[i], o2[i])
		}
	}
}

func TestRecurrenceLegalAndSmall(t *testing.T) {
	m := prepModule(t)
	cfg := core.Config{Nin: 4, Nout: 2}
	sel := SelectRecurrence(m, 8, cfg)
	for _, s := range sel.Instructions {
		if s.Est.In > cfg.Nin || s.Est.Out > cfg.Nout {
			t.Errorf("recurrence cluster violates ports: %v", s.Est)
		}
		if s.Est.Merit <= 0 {
			t.Error("non-positive merit selected")
		}
	}
	// The paper's §4 observation: recurrence-grown clusters stay small
	// (3–4 operations, plus absorbed constants), far below what the exact
	// search takes.
	exact := core.SelectIterative(m, 8, cfg)
	maxRec, maxExact := 0, 0
	for _, s := range sel.Instructions {
		if s.Est.Size > maxRec {
			maxRec = s.Est.Size
		}
	}
	for _, s := range exact.Instructions {
		if s.Est.Size > maxExact {
			maxExact = s.Est.Size
		}
	}
	if maxExact <= maxRec {
		t.Errorf("exact search (%d ops) should exceed recurrence clusters (%d ops)", maxExact, maxRec)
	}
	if exact.TotalMerit < sel.TotalMerit {
		t.Errorf("exact merit %d below recurrence merit %d", exact.TotalMerit, sel.TotalMerit)
	}
}

func TestRecurrenceDisjoint(t *testing.T) {
	m := prepModule(t)
	sel := SelectRecurrence(m, 8, core.Config{Nin: 4, Nout: 2})
	seen := map[*ir.Block]map[int]bool{}
	for _, s := range sel.Instructions {
		if seen[s.Block] == nil {
			seen[s.Block] = map[int]bool{}
		}
		for _, idx := range s.InstrIndexes {
			if seen[s.Block][idx] {
				t.Fatalf("instruction %d selected twice in %s", idx, s.Block.Name)
			}
			seen[s.Block][idx] = true
		}
	}
}

func TestRecurrencePatchable(t *testing.T) {
	m := prepModule(t)
	ref := prepModule(t)
	sel := SelectRecurrence(m, 4, core.Config{Nin: 4, Nout: 2})
	if len(sel.Instructions) == 0 {
		t.Skip("recurrence found nothing")
	}
	if _, _, err := core.ApplySelection(m, sel.Instructions, nil); err != nil {
		t.Fatal(err)
	}
	interp.ClearProfile(m)
	interp.ClearProfile(ref)
	e1, e2 := interp.NewEnv(m), interp.NewEnv(ref)
	r1, _, err1 := e1.Call("main")
	r2, _, err2 := e2.Call("main")
	if err1 != nil || err2 != nil || r1 != r2 {
		t.Fatalf("patched recurrence diverges: %d/%v vs %d/%v", r1, err1, r2, err2)
	}
}
