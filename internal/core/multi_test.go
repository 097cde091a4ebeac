package core

import (
	"fmt"
	"math/rand"
	"testing"

	"isex/internal/dfg"
	"isex/internal/ir"
	"isex/internal/latency"
	"isex/internal/workload"
)

// enumerateBestMulti is the brute-force reference for FindBestCuts: it
// tries every assignment of candidate nodes to {none, cut1..cutM}.
func enumerateBestMulti(g *dfg.Graph, m int, cfg Config) int64 {
	model := cfg.model()
	var candidates []int
	for _, id := range g.OpOrder {
		if !g.Nodes[id].Forbidden {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) > 12 {
		panic("enumerateBestMulti: graph too large")
	}
	assign := make([]int, len(candidates))
	var best int64
	var rec func(i int)
	rec = func(i int) {
		if i == len(candidates) {
			var total int64
			for k := 1; k <= m; k++ {
				var cut dfg.Cut
				for j, a := range assign {
					if a == k {
						cut = append(cut, candidates[j])
					}
				}
				if len(cut) == 0 {
					continue
				}
				if !g.Legal(cut, cfg.Nin, cfg.Nout) {
					return
				}
				total += Evaluate(g, cut, model).Merit
			}
			if total > best {
				best = total
			}
			return
		}
		for a := 0; a <= m; a++ {
			assign[i] = a
			rec(i + 1)
		}
		assign[i] = 0
	}
	rec(0)
	return best
}

func TestMultiCutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prunings := []Config{{}, {PruneInputs: true}, {PruneInputs: true, PruneMerit: true}}
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(t, rng, 4+rng.Intn(5))
		for _, m := range []int{1, 2, 3} {
			for _, c := range []struct{ nin, nout int }{{2, 1}, {4, 2}} {
				for _, cfg := range prunings {
					cfg.Nin, cfg.Nout = c.nin, c.nout
					got := FindBestCuts(g, m, cfg)
					want := enumerateBestMulti(g, m, cfg)
					var gotMerit int64
					if got.Found {
						gotMerit = got.TotalMerit
					}
					if gotMerit != want {
						t.Fatalf("trial %d m=%d (%d,%d) PruneInputs=%v PruneMerit=%v: merit %d, brute force %d (cuts %v)",
							trial, m, c.nin, c.nout, cfg.PruneInputs, cfg.PruneMerit, gotMerit, want, got.Cuts)
					}
				}
			}
		}
	}
}

func TestMultiCutM1EqualsSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(t, rng, 8)
		cfg := Config{Nin: 3, Nout: 2}
		single := FindBestCut(g, cfg)
		multi := FindBestCuts(g, 1, cfg)
		var sm, mm int64
		if single.Found {
			sm = single.Est.Merit
		}
		if multi.Found {
			mm = multi.TotalMerit
		}
		if sm != mm {
			t.Fatalf("trial %d: single %d, multi(1) %d", trial, sm, mm)
		}
	}

	// The kernels' blocks, pruned and budgeted as the selection drivers
	// run them: M = 1 must return what §6.1 returns and consider no more
	// cuts (its merit bound charges an opened cut at least one cycle, so
	// it is never looser than §6.1's).
	if testing.Short() {
		t.Skip("exact searches on the kernels' blocks")
	}
	graphs, err := workload.RealBlockGraphs()
	if err != nil {
		t.Fatal(err)
	}
	var cases int
	var singleCuts, multiCuts int64
	for _, bi := range graphs {
		g := bi.Graph
		if g.NumOps() < 8 {
			continue
		}
		for _, p := range []struct{ nin, nout int }{{2, 1}, {4, 2}, {4, 3}} {
			cfg := Config{Nin: p.nin, Nout: p.nout, PruneInputs: true, PruneMerit: true, MaxCuts: 2_000_000}
			name := fmt.Sprintf("%s/%s/%s %d/%d", bi.Kernel, bi.Fn, bi.Block, p.nin, p.nout)
			single := FindBestCut(g, cfg)
			multi := FindBestCuts(g, 1, cfg)
			cases++
			singleCuts += single.Stats.CutsConsidered
			multiCuts += multi.Stats.CutsConsidered
			if multi.Status != single.Status {
				t.Errorf("%s: status %v, §6.1 %v (cuts %d, §6.1 %d)", name, multi.Status, single.Status,
					multi.Stats.CutsConsidered, single.Stats.CutsConsidered)
				continue
			}
			if multi.Stats.CutsConsidered > single.Stats.CutsConsidered {
				t.Errorf("%s: %d cuts, §6.1 %d", name, multi.Stats.CutsConsidered, single.Stats.CutsConsidered)
			}
			if single.Status != Exhaustive {
				continue
			}
			if multi.Found != single.Found || (single.Found &&
				(multi.TotalMerit != single.Est.Merit || !multi.Cuts[0].Equal(single.Cut))) {
				t.Errorf("%s: %v/%d %v, §6.1 %v/%d %v", name, multi.Found, multi.TotalMerit, multi.Cuts,
					single.Found, single.Est.Merit, single.Cut)
			}
		}
	}
	t.Logf("%d cases: %d cuts at M = 1, %d in §6.1", cases, multiCuts, singleCuts)
}

func TestMultiCutDisjointAndLegal(t *testing.T) {
	checkCuts := func(name string, g *dfg.Graph, res MultiResult, cfg Config) {
		t.Helper()
		seen := map[int]bool{}
		for _, c := range res.Cuts {
			if !g.Legal(c, cfg.Nin, cfg.Nout) {
				t.Fatalf("%s: illegal cut %v", name, c)
			}
			for _, id := range c {
				if seen[id] {
					t.Fatalf("%s: node %d in two cuts", name, id)
				}
				seen[id] = true
			}
		}
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(t, rng, 9)
		cfg := Config{Nin: 3, Nout: 1}
		res := FindBestCuts(g, 3, cfg)
		if res.Found {
			checkCuts(fmt.Sprintf("trial %d", trial), g, res, cfg)
		}
	}

	// 70 independent multiplies, each with two live-ins of its own and
	// one live-out: at 2/1 no two fit in one cut, so the first DFS path
	// opens one cut per node and uses cut labels past 63, which live in
	// the second word of the per-node cut masks.
	const ops = 70
	b := ir.NewBuilder("wide", 2*ops)
	p := b.Fn.Params
	prods := make([]ir.Reg, ops)
	for i := range prods {
		prods[i] = b.Op(ir.OpMul, p[2*i], p[2*i+1])
	}
	nxt := b.NewBlock("next")
	b.Jump(nxt)
	b.SetBlock(nxt)
	acc := prods[0]
	for _, v := range prods[1:] {
		acc = b.Op(ir.OpAdd, acc, v)
	}
	b.Ret(acc)
	f := b.Finish()
	g := dfg.Build(f, f.Entry(), ir.Liveness(f))
	cfg := Config{Nin: 2, Nout: 1, PruneInputs: true, MaxCuts: 20_000}
	res := FindBestCuts(g, ops, cfg)
	if len(res.Cuts) != ops {
		t.Fatalf("M=%d: %d cuts (status %v), want one per multiply", ops, len(res.Cuts), res.Status)
	}
	checkCuts(fmt.Sprintf("M=%d", ops), g, res, cfg)
}

// TestMultiCutFindsDisconnectedPair: two independent chains, Nout=1 each;
// with M=2 both can be taken as separate instructions.
func TestMultiCutFindsDisconnectedPair(t *testing.T) {
	b := ir.NewBuilder("two", 4)
	p := b.Fn.Params
	x1 := b.Op(ir.OpAdd, p[0], p[1])
	x2 := b.Op(ir.OpXor, x1, p[0])
	y1 := b.Op(ir.OpSub, p[2], p[3])
	y2 := b.Op(ir.OpAnd, y1, p[2])
	nxt := b.NewBlock("next")
	b.Jump(nxt)
	b.SetBlock(nxt)
	b.Ret(b.Op(ir.OpOr, x2, y2))
	f := b.Finish()
	g := dfg.Build(f, f.Entry(), ir.Liveness(f))

	one := FindBestCuts(g, 1, Config{Nin: 2, Nout: 1})
	two := FindBestCuts(g, 2, Config{Nin: 2, Nout: 1})
	if !two.Found || len(two.Cuts) != 2 {
		t.Fatalf("M=2 should find two cuts: %+v", two)
	}
	if !one.Found || two.TotalMerit <= one.TotalMerit {
		t.Errorf("M=2 merit %d should exceed M=1 merit %d", two.TotalMerit, one.TotalMerit)
	}
}

// TestSingleCutTakesDisconnected: with Nin=4, Nout=2 a single instruction
// can contain both disconnected chains at once (the paper's M2+M3 case).
func TestSingleCutTakesDisconnected(t *testing.T) {
	b := ir.NewBuilder("two", 4)
	p := b.Fn.Params
	x1 := b.Op(ir.OpAdd, p[0], p[1])
	x2 := b.Op(ir.OpXor, x1, p[0])
	y1 := b.Op(ir.OpSub, p[2], p[3])
	y2 := b.Op(ir.OpAnd, y1, p[2])
	nxt := b.NewBlock("next")
	b.Jump(nxt)
	b.SetBlock(nxt)
	b.Ret(b.Op(ir.OpOr, x2, y2))
	f := b.Finish()
	g := dfg.Build(f, f.Entry(), ir.Liveness(f))

	res := FindBestCut(g, Config{Nin: 4, Nout: 2})
	if !res.Found {
		t.Fatal("no cut")
	}
	if g.Components(res.Cut) != 2 || len(res.Cut) != 4 {
		t.Errorf("expected one disconnected 4-node cut, got %v (comps %d)",
			res.Cut, g.Components(res.Cut))
	}
	// At Nout=1 this is impossible.
	res1 := FindBestCut(g, Config{Nin: 4, Nout: 1})
	if res1.Found && g.Components(res1.Cut) != 1 {
		t.Errorf("Nout=1 must keep cuts connected here, got %v", res1.Cut)
	}
}

func TestMultiCutStats(t *testing.T) {
	g, _ := fig4Graph(t)
	res := FindBestCuts(g, 2, Config{Nin: 8, Nout: 1})
	if res.Stats.CutsConsidered <= 11 {
		t.Errorf("M=2 should consider more cuts than M=1's 11, got %d", res.Stats.CutsConsidered)
	}
	// With two single-output instructions, both sinks are coverable.
	if !res.Found {
		t.Fatal("no cuts found")
	}
	var total int
	for _, c := range res.Cuts {
		total += len(c)
	}
	if latency.CyclesOf(0) != 0 {
		t.Fatal("sanity")
	}
	if total < 3 {
		t.Errorf("expected substantial coverage with two cuts, got %v", res.Cuts)
	}
}

// TestMultiCutWideMasks covers the §6.2 search at M ≥ 64, where a cut
// mask takes more than one word, so enterWide, copyWide and every
// words > 1 branch run; SelectOptimal gets there when one block wins 63
// rounds. A graph with n candidates opens at most n cuts, so M = 64 and
// M = 65 must return the merit and cuts of M = n, serially with the same
// Stats too, and on the engine. Brute force checks the merit of graphs
// with 5 candidates or fewer.
func TestMultiCutWideMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	prunings := []Config{{}, {PruneInputs: true, PruneMerit: true}}
	for graphs := 0; graphs < 12; {
		g := randomGraph(t, rng, 4+rng.Intn(7))
		n := 0
		for _, id := range g.OpOrder {
			if !g.Nodes[id].Forbidden {
				n++
			}
		}
		if n == 0 || n > 8 {
			continue
		}
		graphs++
		for _, c := range []struct{ nin, nout int }{{2, 1}, {4, 2}} {
			for _, base := range prunings {
				base.Nin, base.Nout = c.nin, c.nout
				label := fmt.Sprintf("graph %d (%d candidates) %d/%d prune=%v", graphs, n, c.nin, c.nout, base.PruneMerit)
				want := FindBestCuts(g, n, base)
				if n <= 5 {
					if brute := enumerateBestMulti(g, n, base); want.TotalMerit != brute {
						t.Fatalf("%s: M=%d merit %d, brute force %d", label, n, want.TotalMerit, brute)
					}
				}
				for _, m := range []int{64, 65} {
					for _, nw := range []int{0, 2} {
						cfg := base
						cfg.Workers = nw
						got := FindBestCuts(g, m, cfg)
						if got.Found != want.Found || got.TotalMerit != want.TotalMerit ||
							got.Status != want.Status || len(got.Cuts) != len(want.Cuts) {
							t.Fatalf("%s M=%d workers %d: %v/%d/%v %v, M=%d %v/%d/%v %v", label, m, nw,
								got.Found, got.TotalMerit, got.Status, got.Cuts, n,
								want.Found, want.TotalMerit, want.Status, want.Cuts)
						}
						for i := range want.Cuts {
							if !got.Cuts[i].Equal(want.Cuts[i]) {
								t.Fatalf("%s M=%d workers %d: cut %d is %v, M=%d %v", label, m, nw, i, got.Cuts[i], n, want.Cuts[i])
							}
						}
						if nw == 0 && got.Stats != want.Stats {
							t.Fatalf("%s M=%d: stats %+v, M=%d %+v", label, m, got.Stats, n, want.Stats)
						}
					}
				}
			}
		}
	}

	// One engine run on a kernel block long enough to split: fir's
	// largest block at 2/1, pruned.
	g := hotBlock(t, "fir")
	cfg := Config{Nin: 2, Nout: 1, PruneInputs: true, PruneMerit: true}
	serial := FindBestCuts(g, 64, cfg)
	cfg, donations := withDonationCount(cfg, nil)
	cfg.Workers = 2
	par := FindBestCuts(g, 64, cfg)
	if donations() == 0 {
		t.Error("fir M=64 workers 2: the search never split")
	}
	if serial.Status != Exhaustive || par.Status != Exhaustive || par.TotalMerit != serial.TotalMerit ||
		len(par.Cuts) != len(serial.Cuts) {
		t.Fatalf("fir M=64 workers 2: %v/%d/%v diverges from serial %v/%d/%v",
			par.Cuts, par.TotalMerit, par.Status, serial.Cuts, serial.TotalMerit, serial.Status)
	}
	for i := range par.Cuts {
		if !par.Cuts[i].Equal(serial.Cuts[i]) {
			t.Fatalf("fir M=64 workers 2: cut %d is %v, serial %v", i, par.Cuts[i], serial.Cuts[i])
		}
	}
}
