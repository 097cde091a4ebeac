package core

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"isex/internal/obs"
	"isex/internal/obs/analyze"
)

func TestSearchStatusOrderAndString(t *testing.T) {
	order := []SearchStatus{Exhaustive, BudgetStopped, DeadlineExceeded, Canceled, Recovered}
	for i := 1; i < len(order); i++ {
		if worse(order[i-1], order[i]) != order[i] || worse(order[i], order[i-1]) != order[i] {
			t.Errorf("worse(%v, %v) must pick the later status", order[i-1], order[i])
		}
	}
	for _, s := range order {
		if strings.HasPrefix(s.String(), "SearchStatus(") {
			t.Errorf("missing String case for %d", uint8(s))
		}
	}
	if statusOfCtx(context.DeadlineExceeded) != DeadlineExceeded {
		t.Error("deadline error misclassified")
	}
	if statusOfCtx(context.Canceled) != Canceled {
		t.Error("cancellation misclassified")
	}
}

// TestFindBestCutCtxDeadline: an expiring deadline stops the search
// quickly, and whatever incumbent the deterministic search order had
// produced by then is returned — never less than a shorter prefix of the
// same search.
func TestFindBestCutCtxDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(t, rng, 80)
	cfg := Config{Nin: 1 << 20, Nout: 4}
	// Reference: the incumbent after exactly one poll interval of the same
	// deterministic search order.
	ref := FindBestCut(g, Config{Nin: 1 << 20, Nout: 4, MaxCuts: ctxCheckInterval})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := FindBestCutCtx(ctx, g, cfg)
	elapsed := time.Since(start)

	if res.Status != DeadlineExceeded {
		t.Fatalf("status = %v, want deadline-exceeded (considered %d cuts in %v)",
			res.Status, res.Stats.CutsConsidered, elapsed)
	}
	if !res.Stats.Aborted {
		t.Error("Aborted not set on deadline trip")
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline search took %v, far beyond the 10ms budget", elapsed)
	}
	// The search is deterministic, so having considered at least as many
	// cuts as the reference implies an incumbent at least as good.
	if res.Stats.CutsConsidered >= ref.Stats.CutsConsidered {
		if ref.Found && !res.Found {
			t.Error("deadline search lost the incumbent the budget search had found")
		}
		if ref.Found && res.Found && res.Est.Merit < ref.Est.Merit {
			t.Errorf("deadline incumbent merit %d < budget incumbent %d",
				res.Est.Merit, ref.Est.Merit)
		}
	}
	if res.Found && !g.Convex(res.Cut) {
		t.Error("deadline incumbent is not convex")
	}
}

// TestFindBestCutCtxCanceled: a pre-canceled context stops the search at
// the very first poll, before any cut is considered, and no windowed
// rescue runs — the caller asked to stop.
func TestFindBestCutCtxCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(t, rng, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := FindBestCutCtx(ctx, g, Config{Nin: 8, Nout: 2})
	if res.Status != Canceled {
		t.Fatalf("status = %v, want canceled", res.Status)
	}
	if res.Stats.CutsConsidered != 0 || res.Found {
		t.Errorf("canceled search considered %d cuts, found=%v; want nothing",
			res.Stats.CutsConsidered, res.Found)
	}
	_, bs := searchBlockSafe(ctx, g, Config{Nin: 8, Nout: 2})
	if bs.Status != Canceled {
		t.Errorf("block status = %v, want canceled", bs.Status)
	}
	if bs.Fallback {
		t.Error("windowed rescue ran after cancellation")
	}
}

// TestSearchBlockSafeWindowedRescue: when MaxCuts trips the exact search
// on a large block, searchBlockSafe re-runs it with the §9 windowed
// heuristic and keeps the better of the two sound answers; the rescued
// merit never exceeds the exhaustive optimum. The traced block's explain
// line counts the exact search alone — MaxCuts cuts and its prunes —
// while the result's Stats add the rescue's.
func TestSearchBlockSafeWindowedRescue(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(t, rng, 30)
	if g.NumOps() <= fallbackWindow {
		t.Fatalf("graph too small (%d ops) to exercise the rescue", g.NumOps())
	}
	cfg := Config{Nin: 6, Nout: 2, MaxCuts: 32}
	raw := FindBestCutCtx(context.Background(), g, cfg)
	if raw.Status != BudgetStopped {
		t.Fatalf("raw search status = %v, want budget-stopped", raw.Status)
	}

	traced := cfg
	traced.Probe = &obs.Probe{Rec: obs.NewRecorder(obs.DefaultRingCap)}
	res, bs := searchBlockSafe(context.Background(), g, traced)
	if bs.Status != BudgetStopped {
		t.Fatalf("block status = %v, want budget-stopped", bs.Status)
	}
	if !bs.Fallback || res.Stats.CutsConsidered <= cfg.MaxCuts {
		t.Fatalf("windowed rescue did not run (fallback %v, %d cuts)", bs.Fallback, res.Stats.CutsConsidered)
	}
	rep := analyze.BuildExplain(analyze.Build(traced.Probe.Rec.Merge()))
	if len(rep.Blocks) != 1 {
		t.Fatalf("explain holds %d blocks, want 1", len(rep.Blocks))
	}
	if b := rep.Blocks[0]; b.Cuts != cfg.MaxCuts || b.Prunes != raw.Stats.Pruned {
		t.Errorf("explain reads %d cuts and %d prunes; the exact search considered %d and pruned %d",
			b.Cuts, b.Prunes, raw.Stats.CutsConsidered, raw.Stats.Pruned)
	}
	if raw.Found && !res.Found {
		t.Error("rescue lost the exact search's incumbent")
	}
	if raw.Found && res.Found && res.Est.Merit < raw.Est.Merit {
		t.Errorf("rescued merit %d below exact incumbent %d", res.Est.Merit, raw.Est.Merit)
	}
	if res.Found && !g.Convex(res.Cut) {
		t.Error("rescued cut is not convex")
	}
	full := FindBestCut(g, Config{Nin: 6, Nout: 2})
	if full.Status != Exhaustive {
		t.Fatalf("reference search did not finish: %v", full.Status)
	}
	if res.Found && (!full.Found || res.Est.Merit > full.Est.Merit) {
		t.Errorf("rescued merit %d exceeds exhaustive optimum — unsound", res.Est.Merit)
	}
}

// TestDeadlineRescueFindsCut: regression for the dead rescue path. When
// the deadline trips the exact search on a block larger than
// fallbackWindow, the §9 windowed rescue must run under a detached grace
// context and actually contribute a cut — not re-run under the expired
// context, break out immediately, and still report Fallback=true. The
// hardest case is a deadline that expires before the first incumbent: the
// exact search returns nothing, so whatever the caller gets can only come
// from the rescue.
func TestDeadlineRescueFindsCut(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(t, rng, 30)
	if g.NumOps() <= fallbackWindow {
		t.Fatalf("graph too small (%d ops) to exercise the rescue", g.NumOps())
	}
	cfg := Config{Nin: 6, Nout: 2}
	// Sanity: the block has identifiable merit at all.
	full := FindBestCut(g, cfg)
	if !full.Found {
		t.Fatal("reference search found nothing; pick another seed")
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	res, bs := searchBlockSafe(ctx, g, cfg)
	if bs.Status != DeadlineExceeded || res.Status != DeadlineExceeded {
		t.Fatalf("status = %v/%v, want deadline-exceeded", bs.Status, res.Status)
	}
	if !bs.Fallback {
		t.Fatal("windowed rescue did not run on a deadline trip")
	}
	if !res.Found {
		t.Fatal("deadline-tripped search returned no cut: the rescue ran under the expired context")
	}
	if !g.Legal(res.Cut, cfg.Nin, cfg.Nout) {
		t.Errorf("rescued cut %v is not legal", res.Cut)
	}
	if res.Est.Merit > full.Est.Merit {
		t.Errorf("rescued merit %d exceeds exhaustive optimum %d — unsound", res.Est.Merit, full.Est.Merit)
	}
	if res.Stats.CutsConsidered == 0 {
		t.Error("rescue reported Fallback but considered no cuts")
	}

	// The multi-cut path shares the contract.
	mres, mbs := searchBlockMultiSafe(ctx, g, 2, cfg)
	if !mbs.Fallback || !mres.Found || len(mres.Cuts) == 0 {
		t.Fatalf("multi rescue: fallback=%v found=%v cuts=%d", mbs.Fallback, mres.Found, len(mres.Cuts))
	}
	if !g.Legal(mres.Cuts[0], cfg.Nin, cfg.Nout) {
		t.Errorf("multi rescued cut %v is not legal", mres.Cuts[0])
	}
}

// TestNoFallbackWithoutRescue: Fallback (and the rescue's stats) must not
// be reported when no rescue ran — exhaustive searches, blocks at or
// under the fallback window, and cancellations.
func TestNoFallbackWithoutRescue(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(t, rng, 30)
	cfg := Config{Nin: 6, Nout: 2}

	// Exhaustive: no rescue, stats identical to the raw search.
	raw := FindBestCut(g, cfg)
	res, bs := searchBlockSafe(context.Background(), g, cfg)
	if bs.Fallback {
		t.Error("Fallback reported on an exhaustive search")
	}
	if res.Stats != raw.Stats {
		t.Errorf("exhaustive stats %+v != raw %+v", res.Stats, raw.Stats)
	}

	// A block at/below the fallback window: budget trips, but a rescue at
	// window ≥ block size would just repeat the same search — none runs.
	small := randomGraph(t, rng, 8)
	if small.NumOps() > fallbackWindow {
		t.Fatalf("graph unexpectedly large: %d ops", small.NumOps())
	}
	_, sbs := searchBlockSafe(context.Background(), small, Config{Nin: 6, Nout: 2, MaxCuts: 2})
	if sbs.Fallback {
		t.Error("Fallback reported for a block not larger than the fallback window")
	}
}

// a sound lower bound on the exhaustive optimum, and a search that claims
// Exhaustive matches the optimum exactly.
func TestMaxCutsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(t, rng, 10+rng.Intn(6))
		full := FindBestCut(g, Config{Nin: 4, Nout: 2})
		for _, mc := range []int64{1, 4, 16, 64} {
			lim := FindBestCut(g, Config{Nin: 4, Nout: 2, MaxCuts: mc})
			if lim.Found {
				if !g.Convex(lim.Cut) {
					t.Fatalf("trial %d MaxCuts=%d: returned cut not convex", trial, mc)
				}
				if !full.Found || lim.Est.Merit > full.Est.Merit {
					t.Fatalf("trial %d MaxCuts=%d: merit %d exceeds exhaustive optimum — unsound",
						trial, mc, lim.Est.Merit)
				}
			}
			switch lim.Status {
			case Exhaustive:
				if lim.Found != full.Found ||
					(lim.Found && lim.Est.Merit != full.Est.Merit) {
					t.Fatalf("trial %d MaxCuts=%d: claims exhaustive but differs from optimum", trial, mc)
				}
				if lim.Stats.Aborted {
					t.Fatalf("trial %d MaxCuts=%d: exhaustive yet aborted", trial, mc)
				}
			case BudgetStopped:
				if !lim.Stats.Aborted {
					t.Fatalf("trial %d MaxCuts=%d: budget-stopped without Aborted", trial, mc)
				}
			default:
				t.Fatalf("trial %d MaxCuts=%d: unexpected status %v", trial, mc, lim.Status)
			}
		}
	}
}

// TestPanicInWorkerIsolated: an injected panic while searching one
// function's blocks becomes a per-block Recovered status (with the
// panic and its stack surfaced through Err and FirstPanic); every other
// block is searched normally and still contributes instructions. The
// panicked blocks themselves may still contribute through the greedy
// last-resort rung — that is the ladder guarantee, and such blocks must
// say so via Rung. The area-constrained driver must carry its candidate
// pool run's statuses and FirstPanic through the knapsack.
func TestPanicInWorkerIsolated(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	drivers := []struct {
		label   string
		workers int
		area    bool
	}{
		{"iterative/engine", 2, false},
		{"iterative/serial", 0, false},
		{"area", 0, true},
	}
	for _, d := range drivers {
		label := d.label
		probe := &obs.Probe{Inj: panicAtSearchBegin{"warm/", "injected failure"}}
		before := runtime.NumGoroutine()
		cfg := Config{Nin: 4, Nout: 2, Workers: d.workers, Probe: probe}
		var res SelectionResult
		if d.area {
			res = SelectAreaConstrainedCtx(context.Background(), m, 4, 64, 0, cfg)
		} else {
			res = SelectIterativeCtx(context.Background(), m, 4, cfg)
		}

		if res.Status != Recovered {
			t.Fatalf("%s: status = %v, want recovered", label, res.Status)
		}
		if !strings.Contains(res.FirstPanic, "injected failure") {
			t.Errorf("%s: FirstPanic = %q, want the injected panic", label, res.FirstPanic)
		}
		sawWarm := false
		for _, b := range res.Blocks {
			if b.Fn == "warm" {
				sawWarm = true
				if b.Status != Recovered {
					t.Errorf("%s: warm block status = %v", label, b.Status)
				}
				if b.Err == nil || !strings.Contains(b.Err.Error(), "injected failure") {
					t.Errorf("%s: warm block error = %v", label, b.Err)
				}
			} else if b.Status != Exhaustive {
				t.Errorf("%s: block %s/%s status = %v, want exhaustive",
					label, b.Fn, b.Block, b.Status)
			} else if b.Rung != RungExact {
				t.Errorf("%s: exhaustive block %s/%s reports rung %v",
					label, b.Fn, b.Block, b.Rung)
			}
		}
		if !sawWarm {
			t.Fatalf("%s: no status reported for the panicked function", label)
		}
		if len(res.Instructions) == 0 {
			t.Fatalf("%s: surviving blocks contributed nothing", label)
		}
		hotSelected := false
		for _, sel := range res.Instructions {
			if sel.Fn.Name == "hot" {
				hotSelected = true
			}
			if sel.Est.Merit <= 0 {
				t.Errorf("%s: selected instruction from %s with non-positive merit %d",
					label, sel.Fn.Name, sel.Est.Merit)
			}
		}
		if !hotSelected {
			t.Errorf("%s: hot kernel lost its instruction", label)
		}
		// No leaked workers: allow the runtime a moment to retire them.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before+2 {
			t.Errorf("%s: goroutines %d -> %d, workers leaked", label, before, n)
		}
	}
}

// TestSelectIterativeCtxDeadline: program-wide selection under an already
// tiny deadline still returns promptly with per-block statuses and never
// panics; the aggregate status says how to read the numbers.
func TestSelectIterativeCtxDeadline(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	start := time.Now()
	res := SelectIterativeCtx(ctx, m, 4, Config{Nin: 4, Nout: 2})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("selection under 1ns deadline took %v", elapsed)
	}
	if res.Status != DeadlineExceeded {
		t.Fatalf("status = %v, want deadline-exceeded", res.Status)
	}
	if !res.Degraded() {
		t.Error("Degraded() false on an expired deadline")
	}
	if len(res.Blocks) == 0 {
		t.Error("no per-block statuses reported")
	}
	// The pre-canceled variant must not trigger the windowed rescue.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	cres := SelectIterativeCtx(cctx, m, 4, Config{Nin: 4, Nout: 2})
	if cres.Status != Canceled {
		t.Fatalf("canceled selection status = %v", cres.Status)
	}
	for _, b := range cres.Blocks {
		if b.Fallback {
			t.Errorf("block %s/%s ran the windowed rescue after cancellation", b.Fn, b.Block)
		}
	}
}

// TestMultiSearchAnytime: the multiple-cut searcher of §6.2 honours the
// same contract — budget trips yield sound assignments, cancellation
// stops it, and searchBlockMultiSafe recovers panics.
func TestMultiSearchAnytime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(t, rng, 14)
	full := FindBestCuts(g, 2, Config{Nin: 4, Nout: 2})
	lim := FindBestCuts(g, 2, Config{Nin: 4, Nout: 2, MaxCuts: 8})
	if lim.Found && (!full.Found || lim.TotalMerit > full.TotalMerit) {
		t.Errorf("budget-stopped multi merit %d exceeds exhaustive %d",
			lim.TotalMerit, full.TotalMerit)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cres := FindBestCutsCtx(ctx, g, 2, Config{Nin: 4, Nout: 2})
	if cres.Status != Canceled {
		t.Errorf("canceled multi search status = %v", cres.Status)
	}

	boom := &obs.Probe{Inj: panicAtSearchBegin{"", "multi boom"}}
	res, bs := searchBlockMultiSafe(context.Background(), g, 2, Config{Nin: 4, Nout: 2, Probe: boom})
	if bs.Status != Recovered || bs.Err == nil {
		t.Fatalf("multi panic not recovered: %+v", bs)
	}
	if res.Status != Recovered {
		t.Errorf("recovered multi result status = %v, out of sync with block status", res.Status)
	}
	// The exact search never ran (the search_begin site fires before it
	// starts), so any result can only come from the ladder's lower rungs
	// — here the windowed rescue (the graph exceeds fallbackWindow), with
	// greedy behind it. One of them must deliver: the exhaustive
	// reference finds merit on this graph (checked for this seed).
	if full.Found {
		if !res.Found {
			t.Error("ladder returned no cut although a legal one exists")
		}
		if bs.Rung == RungExact {
			t.Errorf("rescued block reports rung %v; the exact search never produced a cut", bs.Rung)
		}
	}
	if res.Found {
		if len(res.Cuts) == 0 || !g.Legal(res.Cuts[0], 4, 2) {
			t.Errorf("recovered multi search returned an illegal cut: %v", res.Cuts)
		}
		if full.Found && res.TotalMerit > full.TotalMerit {
			t.Errorf("greedy-rescued merit %d exceeds exhaustive optimum %d — unsound",
				res.TotalMerit, full.TotalMerit)
		}
	}
}

// panicAtSearchBegin is an obs.Injector that panics with msg when a
// block search whose "fn/block" tag starts with prefix begins.
type panicAtSearchBegin struct{ prefix, msg string }

func (p panicAtSearchBegin) Fire(site obs.Site, tag string) {
	if site == obs.SiteSearchBegin && strings.HasPrefix(tag, p.prefix) {
		panic(p.msg)
	}
}
