package core

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"isex/internal/dfg"
	"isex/internal/ir"
	"isex/internal/obs"
	"isex/internal/workload"
)

var parallelWorkerCounts = []int{1, 2, 4, 8}

// donationCounter is an obs.Injector that counts SiteDonate fires, one
// per subproblem an engine split off, and passes every fire on to next
// when one is set.
type donationCounter struct {
	next obs.Injector
	n    atomic.Int64
}

func (d *donationCounter) Fire(s obs.Site, tag string) {
	if s == obs.SiteDonate {
		d.n.Add(1)
	}
	if d.next != nil {
		d.next.Fire(s, tag)
	}
}

// withDonationCount returns cfg with a probe whose injector counts
// donations and passes every site on to next (nil for none), and a
// function reading the count. Without next the probe only observes, so
// the run's results and Stats are those of the bare cfg.
func withDonationCount(cfg Config, next obs.Injector) (Config, func() int64) {
	d := &donationCounter{next: next}
	cfg.Probe = &obs.Probe{Inj: d}
	return cfg, d.n.Load
}

// assertSplit fails for every worker count of 2 or more whose runs,
// together, never split a search, and for a single worker that did. The
// engine splits only while a worker is idle, so a search shorter than
// one poll interval stays on its first worker, and a fixture that never
// splits would leave the engine's replay and merge untested.
func assertSplit(t *testing.T, donated map[int]int64) {
	t.Helper()
	counts := make([]int, 0, len(donated))
	for nw := range donated {
		counts = append(counts, nw)
	}
	slices.Sort(counts)
	for _, nw := range counts {
		switch {
		case nw == 1 && donated[nw] != 0:
			t.Errorf("workers=1: a lone worker split off %d subproblems", donated[nw])
		case nw > 1 && donated[nw] == 0:
			t.Errorf("workers=%d: no run donated a subproblem; the fixtures never split", nw)
		}
	}
}

// TestParallelMatchesSerial is the determinism contract: for every
// worker count and every Config variant, a completed parallel run
// returns the bit-identical result of the serial search — same Found,
// same merit, same canonical cut, same Status. With PruneMerit off the
// Stats must match exactly too (the executed subproblems partition the
// serial tree); with PruneMerit on only the result is guaranteed. Every
// worker count must split some of the searches.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	donated := map[int]int64{}
	variants := []Config{
		{Nin: 3, Nout: 2},
		{Nin: 4, Nout: 2, PruneInputs: true},
		{Nin: 3, Nout: 2, PruneMerit: true},
		{Nin: 4, Nout: 3, PruneMerit: true, PruneInputs: true},
	}
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(t, rng, 14+rng.Intn(10))
		for vi, base := range variants {
			serial := FindBestCut(g, base)
			if serial.Status != Exhaustive {
				t.Fatalf("trial %d variant %d: serial not exhaustive", trial, vi)
			}
			for _, nw := range parallelWorkerCounts {
				cfg, donations := withDonationCount(base, nil)
				cfg.Workers = nw
				par := FindBestCut(g, cfg)
				donated[nw] += donations()
				if par.Status != Exhaustive {
					t.Fatalf("trial %d variant %d workers %d: status %v",
						trial, vi, nw, par.Status)
				}
				if par.Found != serial.Found {
					t.Fatalf("trial %d variant %d workers %d: found %v, serial %v",
						trial, vi, nw, par.Found, serial.Found)
				}
				if par.Found {
					if par.Est.Merit != serial.Est.Merit {
						t.Fatalf("trial %d variant %d workers %d: merit %d, serial %d",
							trial, vi, nw, par.Est.Merit, serial.Est.Merit)
					}
					if !par.Cut.Equal(serial.Cut) {
						t.Fatalf("trial %d variant %d workers %d: cut %v, serial %v",
							trial, vi, nw, par.Cut, serial.Cut)
					}
				}
				if !base.PruneMerit && par.Stats != serial.Stats {
					t.Fatalf("trial %d variant %d workers %d: stats %+v, serial %+v",
						trial, vi, nw, par.Stats, serial.Stats)
				}
			}
		}
	}
	assertSplit(t, donated)
}

// TestParallelRepeatDeterministic re-runs the same pruned parallel
// search: the cut and merit must never depend on scheduling.
func TestParallelRepeatDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	g := randomGraph(t, rng, 22)
	cfg := Config{Nin: 4, Nout: 2, PruneMerit: true, Workers: 4}
	first := FindBestCut(g, cfg)
	for i := 0; i < 8; i++ {
		again := FindBestCut(g, cfg)
		if again.Found != first.Found || again.Est.Merit != first.Est.Merit ||
			!again.Cut.Equal(first.Cut) || again.Status != first.Status {
			t.Fatalf("run %d diverged: %v/%d vs %v/%d", i,
				again.Cut, again.Est.Merit, first.Cut, first.Est.Merit)
		}
	}
}

// TestParallelMultiMatchesSerial is the determinism contract for the
// (M+1)-ary multi-cut engine. No variant sets PruneMerit, so the
// executed subproblems partition the serial tree and Stats must match
// the serial run exactly; with PruneInputs the engine must donate only
// the branches the serial search takes. At Nin = 1 the guard already
// fires at the shallow ranks where donation looks first.
//
// Under -short the pruned variants run at M = 2 only, since CI repeats
// the -short pass under the race detector; at M = 3 they take about 30%
// of the test's time. The full run keeps M = 3: its trial 2 (over 10M
// cuts) is the one search long enough for a poll to donate a 0-branch
// the guard rejects. Every worker count must split some of the searches.
func TestParallelMultiMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	donated := map[int]int64{}
	pruned := []int{2, 3}
	if testing.Short() {
		pruned = []int{2}
	}
	variants := []struct {
		cfg Config
		ms  []int
	}{
		{Config{Nin: 3, Nout: 2}, []int{2, 3}},
		{Config{Nin: 3, Nout: 2, PruneInputs: true}, pruned},
		{Config{Nin: 1, Nout: 1, PruneInputs: true}, pruned},
	}
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(t, rng, 10+rng.Intn(6))
		for vi, v := range variants {
			for _, m := range v.ms {
				serial := FindBestCuts(g, m, v.cfg)
				for _, nw := range parallelWorkerCounts {
					cfg, donations := withDonationCount(v.cfg, nil)
					cfg.Workers = nw
					par := FindBestCuts(g, m, cfg)
					donated[nw] += donations()
					if par.Found != serial.Found || par.TotalMerit != serial.TotalMerit ||
						par.Status != serial.Status {
						t.Fatalf("trial %d m=%d variant %d workers %d: %v/%d/%v vs serial %v/%d/%v",
							trial, m, vi, nw, par.Found, par.TotalMerit, par.Status,
							serial.Found, serial.TotalMerit, serial.Status)
					}
					if len(par.Cuts) != len(serial.Cuts) {
						t.Fatalf("trial %d m=%d variant %d workers %d: %d cuts, serial %d",
							trial, m, vi, nw, len(par.Cuts), len(serial.Cuts))
					}
					for i := range par.Cuts {
						if !par.Cuts[i].Equal(serial.Cuts[i]) {
							t.Fatalf("trial %d m=%d variant %d workers %d: cut %d is %v, serial %v",
								trial, m, vi, nw, i, par.Cuts[i], serial.Cuts[i])
						}
					}
					if par.Stats != serial.Stats {
						t.Fatalf("trial %d m=%d variant %d workers %d: stats %+v, serial %+v",
							trial, m, vi, nw, par.Stats, serial.Stats)
					}
				}
			}
		}
	}
	assertSplit(t, donated)
}

// TestParallelMultiTiesMatchSerial: §6.2 searches whose optimum is tied
// by several assignments return the serial search's cuts, not just its
// merit. A donor keeps the k-siblings of the frames whose 0-branches it
// gave away, and those come after the donated subtrees in DFS order, so
// the merge must order candidates by their record's tree position: keyed
// by their subproblem's prefix, these graphs returned another tied
// assignment in about one engine run in five.
func TestParallelMultiTiesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tied := map[int]bool{3: true, 49: true, 225: true, 275: true}
	donated := map[int]int64{}
	for trial := 0; trial <= 275; trial++ {
		g := randomGraph(t, rng, 11+rng.Intn(4))
		if !tied[trial] {
			continue
		}
		for _, base := range []Config{{Nin: 3, Nout: 2}, {Nin: 2, Nout: 1}} {
			serial := FindBestCuts(g, 2, base)
			for rep := 0; rep < 3; rep++ {
				for _, nw := range []int{2, 4, 8} {
					cfg, donations := withDonationCount(base, nil)
					cfg.Workers = nw
					par := FindBestCuts(g, 2, cfg)
					donated[nw] += donations()
					same := par.Status == Exhaustive && par.TotalMerit == serial.TotalMerit &&
						len(par.Cuts) == len(serial.Cuts)
					for i := 0; same && i < len(par.Cuts); i++ {
						same = par.Cuts[i].Equal(serial.Cuts[i])
					}
					if !same {
						t.Fatalf("trial %d %d/%d workers %d: %v/%d/%v, serial %v/%d",
							trial, base.Nin, base.Nout, nw, par.Cuts, par.TotalMerit, par.Status,
							serial.Cuts, serial.TotalMerit)
					}
				}
			}
		}
	}
	assertSplit(t, donated)
}

// TestParallelPreCanceled: a context canceled before the call returns
// immediately with Canceled and no work done, like the serial search.
func TestParallelPreCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	g := randomGraph(t, rng, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, prune := range []bool{false, true} {
		res := FindBestCutCtx(ctx, g, Config{Nin: 3, Nout: 2, PruneMerit: prune, Workers: 4})
		if res.Status != Canceled {
			t.Errorf("prune=%v: status %v, want Canceled", prune, res.Status)
		}
		if res.Stats.CutsConsidered != 0 || !res.Stats.Aborted {
			t.Errorf("prune=%v: stats %+v, want zero cuts and Aborted", prune, res.Stats)
		}
	}
	mres := FindBestCutsCtx(ctx, g, 2, Config{Nin: 3, Nout: 2, Workers: 4})
	if mres.Status != Canceled || mres.Found {
		t.Errorf("multi: status %v found %v, want Canceled and nothing", mres.Status, mres.Found)
	}
}

// TestParallelMidSearchCancel cancels after a few subproblems have been
// handed out: the engine must drain, report Canceled, and any cut it
// returns must still be legal and no better than the true optimum.
func TestParallelMidSearchCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	g := randomGraph(t, rng, 24)
	cfg := Config{Nin: 4, Nout: 3}
	serial := FindBestCut(g, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var subs atomic.Int64
	bbSubHook = func([]uint8) {
		if subs.Add(1) == 4 {
			cancel()
		}
	}
	defer func() { bbSubHook = nil }()
	cfg.Workers = 4
	res := FindBestCutCtx(ctx, g, cfg)
	if res.Status != Canceled && res.Status != Exhaustive {
		t.Fatalf("status %v", res.Status)
	}
	if res.Found {
		if !g.Legal(res.Cut, cfg.Nin, cfg.Nout) {
			t.Fatalf("illegal cut after cancel: %v", res.Cut)
		}
		if serial.Found && res.Est.Merit > serial.Est.Merit {
			t.Fatalf("cancel result beats the optimum: %d > %d", res.Est.Merit, serial.Est.Merit)
		}
	}
}

// TestParallelBudget: the global MaxCuts valve stops all workers.
func TestParallelBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	g := randomGraph(t, rng, 26)
	cfg := Config{Nin: 5, Nout: 4, MaxCuts: 3000, Workers: 4}
	res := FindBestCut(g, cfg)
	if res.Status != BudgetStopped {
		t.Fatalf("status %v, want BudgetStopped", res.Status)
	}
	if !res.Stats.Aborted {
		t.Error("Aborted not set")
	}
	// The budget is enforced at poll granularity: overshoot is bounded by
	// one poll interval per worker.
	if over := res.Stats.CutsConsidered - cfg.MaxCuts; over > int64(cfg.Workers)*ctxCheckInterval {
		t.Errorf("budget overshoot %d beyond the documented bound", over)
	}
	if res.Found && !g.Legal(res.Cut, cfg.Nin, cfg.Nout) {
		t.Errorf("illegal incumbent: %v", res.Cut)
	}
}

// TestParallelPanicRecovered: a panicking subproblem poisons neither the
// engine nor the process. A transient (one-shot) panic is absorbed by
// the retry loop — the run still completes Exhaustive, bit-identical to
// the serial search, with the survived panic surfaced in Result.Err. A
// persistent panic exhausts the retries and degrades the status to
// Recovered. Neither leaks worker goroutines.
func TestParallelPanicRecovered(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	g := randomGraph(t, rng, 20)
	ref := FindBestCut(g, Config{Nin: 3, Nout: 2})

	// Transient: fires once, the retry re-runs the subproblem cleanly.
	var fired atomic.Bool
	bbSubHook = func(prefix []uint8) {
		if len(prefix) > 0 && fired.CompareAndSwap(false, true) {
			panic("injected subproblem panic")
		}
	}
	defer func() { bbSubHook = nil }()
	before := runtime.NumGoroutine()
	cfg, donations := withDonationCount(Config{Nin: 3, Nout: 2, Workers: 4}, nil)
	res := FindBestCut(g, cfg)
	if donations() == 0 {
		t.Fatal("the search never split, so no subproblem could panic")
	}
	if res.Status != Exhaustive {
		t.Fatalf("transient panic: status %v, want Exhaustive (the retry replays the subproblem)", res.Status)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "injected subproblem panic") {
		t.Errorf("transient panic not surfaced in Result.Err: %v", res.Err)
	}
	if res.Found != ref.Found || (res.Found && res.Est.Merit != ref.Est.Merit) {
		t.Errorf("retried run diverged from serial: found=%v merit=%d, want found=%v merit=%d",
			res.Found, res.Est.Merit, ref.Found, ref.Est.Merit)
	}
	if res.Found && !g.Legal(res.Cut, 3, 2) {
		t.Errorf("illegal cut: %v", res.Cut)
	}

	// Persistent: every attempt on the poisoned subtree dies, so the
	// retries are exhausted and its loss degrades the run to Recovered.
	bbSubHook = func(prefix []uint8) {
		if len(prefix) > 0 && prefix[0] == 1 {
			panic("persistent subproblem panic")
		}
	}
	cfg, donations = withDonationCount(Config{Nin: 3, Nout: 2, Workers: 4}, nil)
	pres := FindBestCut(g, cfg)
	if donations() == 0 {
		t.Fatal("persistent panic: the search never split, so no subproblem could panic")
	}
	if pres.Status != Recovered {
		t.Fatalf("persistent panic: status %v, want Recovered", pres.Status)
	}
	if pres.Err == nil {
		t.Error("persistent panic: Result.Err not set")
	}
	if pres.Found && !g.Legal(pres.Cut, 3, 2) {
		t.Errorf("persistent panic: illegal cut %v", pres.Cut)
	}
	if pres.Found && ref.Found && pres.Est.Merit > ref.Est.Merit {
		t.Errorf("persistent panic: merit %d exceeds serial optimum %d", pres.Est.Merit, ref.Est.Merit)
	}

	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d -> %d", before, after)
	}
}

// allForbiddenGraph builds a block whose operation nodes are all loads
// (forbidden), so the search tree consists purely of 0-branches.
func allForbiddenGraph(t *testing.T, nOps int) *dfg.Graph {
	t.Helper()
	b := ir.NewBuilder("forb", 2)
	v := b.Fn.Params[0]
	for i := 0; i < nOps; i++ {
		v = b.Load(v)
	}
	b.Ret(v)
	f := b.Finish()
	if err := ir.VerifyFunction(f, nil); err != nil {
		t.Fatal(err)
	}
	f.Entry().Freq = 10
	return dfg.Build(f, f.Entry(), ir.Liveness(f))
}

// TestCancelObservedOnZeroBranches is the regression for the old poll,
// which fired only on 1-branches: on a graph whose nodes are all
// forbidden the search used to run to completion under a canceled
// context without ever observing it. The per-visit tick poll (plus the
// entry poll) must observe the cancellation regardless of branch mix.
func TestCancelObservedOnZeroBranches(t *testing.T) {
	g := allForbiddenGraph(t, 2*ctxCheckInterval)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := FindBestCutCtx(ctx, g, Config{Nin: 3, Nout: 2})
	if res.Status != Canceled {
		t.Errorf("single: status %v, want Canceled", res.Status)
	}
	if res.Stats.CutsConsidered != 0 {
		t.Errorf("single: %d cuts considered under pre-canceled ctx", res.Stats.CutsConsidered)
	}
	mres := FindBestCutsCtx(ctx, g, 2, Config{Nin: 3, Nout: 2})
	if mres.Status != Canceled {
		t.Errorf("multi: status %v, want Canceled", mres.Status)
	}
	if mres.Stats.CutsConsidered != 0 {
		t.Errorf("multi: %d cuts considered under pre-canceled ctx", mres.Stats.CutsConsidered)
	}
}

// TestParallelAdpcmMatchesSerial runs the full engine on real hot blocks
// and checks bit-identical results against a serial reference: on the
// adpcm decoder's, the pruned serial search; on g721's (126 ops, the
// largest block of the suite), the unpruned serial search, which the
// pruned serial search must match as well. The §6.2 engine gets the
// same check on g721's block at M = 2.
func TestParallelAdpcmMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second exact search")
	}
	pruned := Config{Nin: 2, Nout: 1, PruneMerit: true, PruneInputs: true}
	for _, tc := range []struct {
		kernel  string
		ref     Config // the serial reference
		cfg     Config // checked against it
		workers []int  // 0 is the serial search
	}{
		{"adpcmdecode", Config{Nin: 2, Nout: 1, PruneMerit: true}, Config{Nin: 2, Nout: 1, PruneMerit: true}, []int{1, 4}},
		{"g721", Config{Nin: 2, Nout: 1}, pruned, []int{0, 1, 2, 4, 8}},
	} {
		g := hotBlock(t, tc.kernel)
		ref := FindBestCut(g, tc.ref)
		if ref.Status != Exhaustive {
			t.Fatalf("%s: reference status %v", tc.kernel, ref.Status)
		}
		for _, nw := range tc.workers {
			pcfg, donations := withDonationCount(tc.cfg, nil)
			pcfg.Workers = nw
			par := FindBestCut(g, pcfg)
			if par.Status != Exhaustive || par.Found != ref.Found ||
				par.Est.Merit != ref.Est.Merit || !par.Cut.Equal(ref.Cut) {
				t.Fatalf("%s workers %d: %v/%d/%v diverges from the reference %v/%d",
					tc.kernel, nw, par.Cut, par.Est.Merit, par.Status, ref.Cut, ref.Est.Merit)
			}
			if nw > 1 && donations() == 0 {
				t.Errorf("%s workers %d: the search never split", tc.kernel, nw)
			}
		}
	}

	g := hotBlock(t, "g721")
	serial := FindBestCuts(g, 2, pruned)
	if serial.Status != Exhaustive {
		t.Fatalf("g721 M=2: serial status %v", serial.Status)
	}
	for _, nw := range []int{2, 4} {
		pcfg, donations := withDonationCount(pruned, nil)
		pcfg.Workers = nw
		par := FindBestCuts(g, 2, pcfg)
		if donations() == 0 {
			t.Errorf("g721 M=2 workers %d: the search never split", nw)
		}
		if par.Status != Exhaustive || par.Found != serial.Found || par.TotalMerit != serial.TotalMerit ||
			len(par.Cuts) != len(serial.Cuts) {
			t.Fatalf("g721 M=2 workers %d: %v/%d/%v diverges from serial %v/%d",
				nw, par.Cuts, par.TotalMerit, par.Status, serial.Cuts, serial.TotalMerit)
		}
		for i := range par.Cuts {
			if !par.Cuts[i].Equal(serial.Cuts[i]) {
				t.Fatalf("g721 M=2 workers %d: cut %d is %v, serial %v", nw, i, par.Cuts[i], serial.Cuts[i])
			}
		}
	}
}

// hotBlock returns the largest block graph of the named kernel.
func hotBlock(t *testing.T, kernel string) *dfg.Graph {
	t.Helper()
	k := workload.ByName(kernel)
	if _, err := k.Prepare(); err != nil {
		t.Fatal(err)
	}
	graphs, err := workload.RealBlockGraphs()
	if err != nil {
		t.Fatal(err)
	}
	var hot *workload.BlockInfo
	for i := range graphs {
		if graphs[i].Kernel == kernel && (hot == nil || graphs[i].Graph.NumOps() > hot.Graph.NumOps()) {
			hot = &graphs[i]
		}
	}
	if hot == nil {
		t.Fatalf("no blocks for kernel %s", kernel)
	}
	return hot.Graph
}
