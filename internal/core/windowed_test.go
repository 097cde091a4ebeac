package core

import (
	"math/rand"
	"testing"

	"isex/internal/workload"
)

func TestWindowedSoundAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(t, rng, 8+rng.Intn(8))
		for _, c := range []struct{ nin, nout int }{{2, 1}, {4, 2}} {
			cfg := Config{Nin: c.nin, Nout: c.nout}
			exact := FindBestCut(g, cfg)
			for _, w := range []int{3, 5, 8} {
				heur := FindBestCutWindowed(g, cfg, w)
				if heur.Found {
					// Soundness: the cut is legal on the FULL graph.
					if !g.Legal(heur.Cut, c.nin, c.nout) {
						t.Fatalf("trial %d w=%d: illegal windowed cut %v", trial, w, heur.Cut)
					}
					if !exact.Found || heur.Est.Merit > exact.Est.Merit {
						t.Fatalf("trial %d w=%d: heuristic %d beats exact %v",
							trial, w, heur.Est.Merit, exact.Est)
					}
				}
			}
			// A window covering the whole graph equals the exact search.
			full := FindBestCutWindowed(g, cfg, g.NumOps())
			if full.Found != exact.Found || (full.Found && full.Est.Merit != exact.Est.Merit) {
				t.Fatalf("trial %d: full window diverges from exact", trial)
			}
		}
	}
}

// TestWindowedOnLargeBlock: on the adpcm decoder body (which the exact
// search needs ~1.6M cuts for at (2,1)), the windowed heuristic finds a
// high-quality cut with a small fraction of the effort.
func TestWindowedOnLargeBlock(t *testing.T) {
	k := workload.ByName("adpcmdecode")
	m, err := k.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := workload.RealBlockGraphs()
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	var hot *workload.BlockInfo
	for i := range graphs {
		if graphs[i].Kernel == "adpcmdecode" && (hot == nil || graphs[i].Graph.NumOps() > hot.Graph.NumOps()) {
			hot = &graphs[i]
		}
	}
	cfg := Config{Nin: 2, Nout: 1}
	exact := FindBestCut(hot.Graph, cfg)
	heur := FindBestCutWindowed(hot.Graph, cfg, 24)
	if !heur.Found {
		t.Fatal("windowed found nothing")
	}
	if heur.Stats.CutsConsidered*4 > exact.Stats.CutsConsidered {
		t.Errorf("windowed considered %d cuts, exact %d; expected a big reduction",
			heur.Stats.CutsConsidered, exact.Stats.CutsConsidered)
	}
	quality := float64(heur.Est.Merit) / float64(exact.Est.Merit)
	if quality < 0.5 {
		t.Errorf("windowed quality only %.2f of optimum", quality)
	}
	t.Logf("windowed: %.0f%% of optimal merit at %.1f%% of the search effort",
		quality*100, 100*float64(heur.Stats.CutsConsidered)/float64(exact.Stats.CutsConsidered))
}

// TestWindowedSelectionEndToEnd: a selection whose block answer comes
// from the §9 windowed rescue patches like any other. On adpcmdecode at
// 2/1 under a 20,000-cut budget, the rescue's cut replaces the exact
// search's on body2.
func TestWindowedSelectionEndToEnd(t *testing.T) {
	k := workload.ByName("adpcmdecode")
	m, err := k.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	sel := SelectIterative(m, 4, Config{Nin: 2, Nout: 1, MaxCuts: 20_000})
	windowed := 0
	for _, b := range sel.Blocks {
		if b.Rung == RungWindowed {
			windowed++
		}
	}
	if windowed == 0 || len(sel.Instructions) == 0 {
		t.Fatalf("no windowed rescue adopted: %+v", sel.Blocks)
	}
	if _, _, err := ApplySelection(m, sel.Instructions, nil); err != nil {
		t.Fatal(err)
	}
}
