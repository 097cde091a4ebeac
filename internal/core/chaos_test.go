package core

// Chaos suite: run the search pipeline under deterministic, seeded fault
// schedules (internal/faultinject) and assert the degradation ladder's
// hard guarantees hold no matter what fires:
//
//   - no deadlock, no crash: every search returns;
//   - soundness: a returned cut is Legal with positive merit, never
//     better than the fault-free optimum;
//   - truthfulness: Status == Exhaustive implies the result is
//     bit-identical to the fault-free serial reference, and a schedule
//     that never fired implies Exhaustive;
//   - completeness: when the greedy last resort can find a cut, the
//     ladder never comes back empty-handed;
//   - hygiene: a shared CPUPool gets every slot back.
//
// Every schedule derives from a seed. Override the seed list with
// ISEX_CHAOS_SEED=<n> to replay one schedule; set
// ISEX_CHAOS_ARTIFACT_DIR to a directory to dump the failing schedule
// as JSON (the CI chaos-smoke job uploads it as an artifact).

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"isex/internal/dfg"
	"isex/internal/faultinject"
	"isex/internal/obs"
)

// chaosStallWindow arms the engine watchdog far above RandomPlan's
// largest injected delay (2ms) AND above any plausible scheduling
// starvation on a loaded CI runner (the watchdog cannot tell a wedged
// worker from one the OS descheduled, and a spurious Stalled would
// break the zero-faults-fired ⟹ Exhaustive invariant below). The
// watchdog's actual firing path is covered by TestChaosStallRequeue,
// which wedges a worker on purpose.
const chaosStallWindow = time.Second

var chaosWorkerCounts = []int{0, 1, 4, 8}

// chaosSeeds returns the seed list, honouring the ISEX_CHAOS_SEED
// replay override.
func chaosSeeds(t *testing.T, def ...int64) []int64 {
	t.Helper()
	s := os.Getenv("ISEX_CHAOS_SEED")
	if s == "" {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("ISEX_CHAOS_SEED=%q: %v", s, err)
	}
	return []int64{v}
}

// chaosArtifact arranges for the schedule to be dumped as JSON into
// ISEX_CHAOS_ARTIFACT_DIR if the (sub)test fails, so a CI failure ships
// its exact reproducer.
func chaosArtifact(t *testing.T, seed int64, rules []faultinject.Rule) {
	t.Helper()
	t.Cleanup(func() {
		dir := os.Getenv("ISEX_CHAOS_ARTIFACT_DIR")
		if !t.Failed() || dir == "" {
			return
		}
		type ruleJSON struct {
			Rule   string        `json:"rule"`
			Site   string        `json:"site"`
			Action string        `json:"action"`
			Tag    string        `json:"tag,omitempty"`
			Nth    int64         `json:"nth"`
			Period int64         `json:"period"`
			Delay  time.Duration `json:"delay_ns"`
		}
		out := struct {
			Test  string     `json:"test"`
			Seed  int64      `json:"seed"`
			Rules []ruleJSON `json:"rules"`
		}{Test: t.Name(), Seed: seed}
		for _, r := range rules {
			out.Rules = append(out.Rules, ruleJSON{
				Rule: r.String(), Site: r.Site.String(), Action: r.Action.String(),
				Tag: r.Tag, Nth: r.Nth, Period: r.Period, Delay: r.Delay,
			})
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Logf("chaos artifact: %v", err)
			return
		}
		name := strings.NewReplacer("/", "_", "=", "_").Replace(t.Name()) + ".json"
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(dir, name), b, 0o644)
		}
		if err != nil {
			t.Logf("chaos artifact: %v", err)
		} else {
			t.Logf("chaos schedule written to %s", filepath.Join(dir, name))
		}
	})
}

func chaosProbe(inj *faultinject.Injector) *obs.Probe {
	return &obs.Probe{Inj: inj, Met: obs.NewMetrics(obs.NewRegistry())}
}

// checkChaosSingle asserts the ladder invariants for one single-cut run
// against its fault-free serial reference.
func checkChaosSingle(t *testing.T, label string, g *dfg.Graph, cfg Config,
	ref Result, res Result, bs BlockStatus, inj *faultinject.Injector, greedyFinds bool) {
	t.Helper()
	if res.Status != bs.Status {
		t.Errorf("%s: Result.Status %v != BlockStatus.Status %v", label, res.Status, bs.Status)
	}
	if res.Found {
		if len(res.Cut) == 0 || !g.Legal(res.Cut, cfg.Nin, cfg.Nout) {
			t.Errorf("%s: returned cut %v is not legal", label, res.Cut)
		}
		if res.Est.Merit <= 0 {
			t.Errorf("%s: returned merit %d is not positive", label, res.Est.Merit)
		}
		if res.Est.Merit > ref.Est.Merit {
			t.Errorf("%s: merit %d beats the fault-free optimum %d — unsound",
				label, res.Est.Merit, ref.Est.Merit)
		}
	}
	if res.Status == Exhaustive {
		if res.Found != ref.Found || res.Est.Merit != ref.Est.Merit || !res.Cut.Equal(ref.Cut) {
			t.Errorf("%s: claims Exhaustive but diverges from the serial reference: %v/%d vs %v/%d",
				label, res.Cut, res.Est.Merit, ref.Cut, ref.Est.Merit)
		}
	}
	if inj.FiredCount() == 0 && res.Status != Exhaustive {
		t.Errorf("%s: no fault fired yet status = %v", label, res.Status)
	}
	if greedyFinds && !res.Found {
		t.Errorf("%s: ladder came back empty (status %v) though the greedy rung can find a cut",
			label, res.Status)
	}
}

// TestChaosSingleSearch runs the single-cut ladder under randomized but
// seeded schedules across the full worker matrix.
func TestChaosSingleSearch(t *testing.T) {
	for _, seed := range chaosSeeds(t, 1, 2, 3, 4, 5, 6) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := randomGraph(t, rng, 16+rng.Intn(8))
			base := Config{Nin: 4, Nout: 2, ISEGen: true}
			ref := FindBestCut(g, base)
			if ref.Status != Exhaustive {
				t.Fatalf("reference search not exhaustive: %v", ref.Status)
			}
			_, _, _, greedyFinds := greedyRescue(g, base)
			for _, nw := range chaosWorkerCounts {
				plan := faultinject.RandomPlan(seed*31+int64(nw), 6)
				chaosArtifact(t, seed*31+int64(nw), plan)
				inj := faultinject.New(plan...)
				ctx, cancel := inj.Context(context.Background())
				cfg := base
				cfg.Workers = nw
				cfg.Probe = chaosProbe(inj)
				cfg.StallWindow = chaosStallWindow
				res, bs := searchBlockSafe(ctx, g, cfg)
				cancel()
				checkChaosSingle(t, fmt.Sprintf("workers=%d", nw), g, cfg, ref, res, bs, inj, greedyFinds)
			}
		})
	}
}

// TestChaosMultiSearch is the same contract for the (M+1)-ary
// multiple-cut ladder.
func TestChaosMultiSearch(t *testing.T) {
	for _, seed := range chaosSeeds(t, 11, 12, 13) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := randomGraph(t, rng, 12+rng.Intn(4))
			base := Config{Nin: 3, Nout: 2, ISEGen: true}
			ref := FindBestCuts(g, 2, base)
			if ref.Status != Exhaustive {
				t.Fatalf("reference search not exhaustive: %v", ref.Status)
			}
			for _, nw := range chaosWorkerCounts {
				plan := faultinject.RandomPlan(seed*37+int64(nw), 6)
				chaosArtifact(t, seed*37+int64(nw), plan)
				inj := faultinject.New(plan...)
				ctx, cancel := inj.Context(context.Background())
				cfg := base
				cfg.Workers = nw
				cfg.Probe = chaosProbe(inj)
				cfg.StallWindow = chaosStallWindow
				res, bs := searchBlockMultiSafe(ctx, g, 2, cfg)
				cancel()
				label := fmt.Sprintf("workers=%d", nw)
				if res.Status != bs.Status {
					t.Errorf("%s: MultiResult.Status %v != BlockStatus.Status %v", label, res.Status, bs.Status)
				}
				if res.Found {
					var sum int64
					for i, c := range res.Cuts {
						if len(c) == 0 || !g.Legal(c, cfg.Nin, cfg.Nout) {
							t.Errorf("%s: cut %d (%v) is not legal", label, i, c)
						}
						sum += res.Ests[i].Merit
					}
					if sum != res.TotalMerit || res.TotalMerit <= 0 {
						t.Errorf("%s: merit accounting broken: cuts sum %d, TotalMerit %d", label, sum, res.TotalMerit)
					}
					if res.TotalMerit > ref.TotalMerit {
						t.Errorf("%s: total merit %d beats the fault-free optimum %d — unsound",
							label, res.TotalMerit, ref.TotalMerit)
					}
				}
				if res.Status == Exhaustive &&
					(res.Found != ref.Found || res.TotalMerit != ref.TotalMerit) {
					t.Errorf("%s: claims Exhaustive but diverges from reference: %d vs %d",
						label, res.TotalMerit, ref.TotalMerit)
				}
				if inj.FiredCount() == 0 && res.Status != Exhaustive {
					t.Errorf("%s: no fault fired yet status = %v", label, res.Status)
				}
			}
		})
	}
}

// TestChaosSelection runs program-wide selection — serial, per-block
// parallel (ungated and admission-gated on a CPUPool), and with the
// racer — under seeded schedules: the selection must return, report a
// truthful status, select only positive-merit instructions, and give
// every pool slot back.
func TestChaosSelection(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	base := Config{Nin: 4, Nout: 2}
	ref := SelectIterativeCtx(context.Background(), m, 4, base)
	if ref.Status != Exhaustive {
		t.Fatalf("reference selection not exhaustive: %v", ref.Status)
	}
	variants := []struct {
		cfg  Config
		pool bool // gate the block searches on a fresh CPUPool per run
	}{
		{cfg: Config{Nin: 4, Nout: 2}},
		{cfg: Config{Nin: 4, Nout: 2, Parallel: true, Workers: 4}},
		{cfg: Config{Nin: 4, Nout: 2, Parallel: true, Workers: 4}, pool: true},
		{cfg: Config{Nin: 4, Nout: 2, ISEGen: true, Parallel: true, Workers: 4}},
	}
	for _, seed := range chaosSeeds(t, 21, 22, 23) {
		for vi, v := range variants {
			t.Run(fmt.Sprintf("seed=%d/variant=%d", seed, vi), func(t *testing.T) {
				plan := faultinject.RandomPlan(seed*41+int64(vi), 8)
				chaosArtifact(t, seed*41+int64(vi), plan)
				inj := faultinject.New(plan...)
				ctx, cancel := inj.Context(context.Background())
				defer cancel()
				cfg := v.cfg
				cfg.Probe = chaosProbe(inj)
				cfg.StallWindow = chaosStallWindow
				if v.pool {
					cfg.Pool = NewCPUPool(2)
				}
				res := SelectIterativeCtx(ctx, m, 4, cfg)
				for _, sel := range res.Instructions {
					if sel.Est.Merit <= 0 {
						t.Errorf("selected instruction in %s/%s with non-positive merit %d",
							sel.Fn.Name, sel.Block.Name, sel.Est.Merit)
					}
				}
				if res.TotalMerit > ref.TotalMerit {
					t.Errorf("total merit %d beats the fault-free reference %d — unsound",
						res.TotalMerit, ref.TotalMerit)
				}
				if res.Status == Exhaustive && res.TotalMerit != ref.TotalMerit {
					t.Errorf("claims Exhaustive but merit %d diverges from reference %d",
						res.TotalMerit, ref.TotalMerit)
				}
				if inj.FiredCount() == 0 {
					if res.Status != Exhaustive {
						t.Errorf("no fault fired yet status = %v", res.Status)
					}
					if res.TotalMerit != ref.TotalMerit {
						t.Errorf("no fault fired yet merit %d != reference %d", res.TotalMerit, ref.TotalMerit)
					}
				}
				if cfg.Pool != nil {
					if n := cfg.Pool.Leaked(); n != 0 {
						t.Errorf("CPUPool leaked %d slots", n)
					}
				}
			})
		}
	}
}

// TestChaosPerSiteLadder injects an unconditional panic (every hit) at
// every probe site class in turn: whatever the site, the block ladder
// must still return a legal cut whenever the greedy last resort could
// find one, and a site the search never reaches must leave the result
// exact.
func TestChaosPerSiteLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(t, rng, 18)
	base := Config{Nin: 4, Nout: 2, ISEGen: true}
	ref := FindBestCut(g, base)
	if ref.Status != Exhaustive || !ref.Found {
		t.Fatalf("reference: status %v found %v — fixture graph unusable", ref.Status, ref.Found)
	}
	_, _, _, greedyFinds := greedyRescue(g, base)
	if !greedyFinds {
		t.Fatal("fixture graph has no greedy-findable cut; pick another seed")
	}
	for site := 0; site < obs.SiteCount; site++ {
		for _, nw := range []int{0, 4} {
			label := fmt.Sprintf("site=%s/workers=%d", obs.Site(site), nw)
			rules := []faultinject.Rule{{Site: obs.Site(site), Action: faultinject.ActPanic, Nth: 1, Period: 1}}
			inj := faultinject.New(rules...)
			cfg := base
			cfg.Workers = nw
			cfg.Probe = chaosProbe(inj)
			cfg.StallWindow = chaosStallWindow
			res, bs := searchBlockSafe(context.Background(), g, cfg)
			checkChaosSingle(t, label, g, cfg, ref, res, bs, inj, true)
			// A fired panic must leave a trace: either the status degrades
			// to Recovered, or — when the engine's bounded retry re-ran the
			// subproblem to completion and the result stayed exact (already
			// verified bit-identical above) — the recovered panic is still
			// recorded in Result.Err.
			if inj.FiredCount() > 0 && res.Status == Exhaustive && res.Err == nil {
				t.Errorf("%s: %d injected panics left no trace (status %v, nil Err)",
					label, inj.FiredCount(), res.Status)
			}
		}
	}
}

// TestChaosDriverSites injects unconditional panics at the probe site
// that fires on the selection driver's own goroutine (winner collapse),
// where no per-block guard is on the stack: the public entry points'
// driver guard must convert them into a Recovered selection instead of
// crashing the process.
func TestChaosDriverSites(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	inj := faultinject.New(faultinject.Rule{Site: obs.SiteCollapse, Action: faultinject.ActPanic, Nth: 1, Period: 1})
	cfg := Config{Nin: 4, Nout: 2, Probe: chaosProbe(inj)}
	res := SelectIterativeCtx(context.Background(), m, 4, cfg)
	if inj.FiredCount() > 0 && res.Status != Recovered {
		t.Errorf("%d injected panics but status is %v, not Recovered", inj.FiredCount(), res.Status)
	}
	if inj.FiredCount() > 0 && res.FirstPanic == "" {
		t.Errorf("injected panic not surfaced in FirstPanic")
	}
	for _, sel := range res.Instructions {
		if sel.Est.Merit <= 0 {
			t.Errorf("selected instruction with non-positive merit %d", sel.Est.Merit)
		}
	}
}

// TestChaosZeroFaultBitIdentical wires a full injector whose rules can
// never come due: the pipeline must behave exactly as if no injector
// were attached — Exhaustive status and bit-identical results.
func TestChaosZeroFaultBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(t, rng, 20)
	base := Config{Nin: 4, Nout: 2, ISEGen: true}
	ref := FindBestCut(g, base)
	rules := make([]faultinject.Rule, 0, obs.SiteCount)
	for site := 0; site < obs.SiteCount; site++ {
		rules = append(rules, faultinject.Rule{
			Site: obs.Site(site), Action: faultinject.ActPanic, Nth: 1 << 40,
		})
	}
	for _, nw := range chaosWorkerCounts {
		inj := faultinject.New(rules...)
		ctx, cancel := inj.Context(context.Background())
		cfg := base
		cfg.Workers = nw
		cfg.Probe = chaosProbe(inj)
		cfg.StallWindow = chaosStallWindow
		res, bs := searchBlockSafe(ctx, g, cfg)
		cancel()
		if fired := inj.FiredCount(); fired != 0 {
			t.Fatalf("workers=%d: %d rules fired; schedule was meant to be inert", nw, fired)
		}
		if res.Status != Exhaustive || bs.Rung != RungExact {
			t.Errorf("workers=%d: status %v rung %v under a zero-fault schedule", nw, res.Status, bs.Rung)
		}
		if res.Found != ref.Found || res.Est.Merit != ref.Est.Merit || !res.Cut.Equal(ref.Cut) {
			t.Errorf("workers=%d: result diverges from the uninstrumented run: %v/%d vs %v/%d",
				nw, res.Cut, res.Est.Merit, ref.Cut, ref.Est.Merit)
		}
	}
}

// TestChaosStallRequeue wedges one worker with an injected 200ms delay
// while the watchdog window is 25ms: the watchdog must flag the stall,
// the wedged subproblem must be requeued whole, and the search must
// still deliver the serial optimum — just honestly labelled Stalled.
func TestChaosStallRequeue(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(t, rng, 20)
	base := Config{Nin: 4, Nout: 2}
	ref := FindBestCut(g, base)
	if ref.Status != Exhaustive || !ref.Found {
		t.Fatalf("reference: status %v found %v — fixture graph unusable", ref.Status, ref.Found)
	}
	inj := faultinject.New(faultinject.Rule{
		Site: obs.SitePrune, Action: faultinject.ActDelay, Nth: 1, Delay: 200 * time.Millisecond,
	})
	cfg := base
	cfg.Workers = 4
	cfg.Probe = chaosProbe(inj)
	cfg.StallWindow = 25 * time.Millisecond
	res := FindBestCut(g, cfg)
	if inj.FiredCount() == 0 {
		t.Fatal("delay rule never fired; SitePrune unreachable on this graph")
	}
	if res.Status != Stalled {
		t.Fatalf("status = %v, want Stalled", res.Status)
	}
	if res.Found != ref.Found || res.Est.Merit != ref.Est.Merit || !res.Cut.Equal(ref.Cut) {
		t.Errorf("requeued search lost work: %v/%d vs serial %v/%d",
			res.Cut, res.Est.Merit, ref.Cut, ref.Est.Merit)
	}
	if n := cfg.Probe.Met.Stalls.Value(); n < 1 {
		t.Errorf("Stalls metric = %d, want >= 1", n)
	}
}

// TestChaosPoolLeakDetection provokes an actual slot leak on a bare
// CPUPool (acquires whose releases are skipped, as a panic without the
// deferred release would) and checks Leaked reports it; the healthy
// path must report zero.
func TestChaosPoolLeakDetection(t *testing.T) {
	p := NewCPUPool(4)
	p.Acquire()
	p.Acquire()
	p.Release()
	p.Release()
	if n := p.Leaked(); n != 0 {
		t.Fatalf("balanced pool reports %d leaked slots", n)
	}
	// Simulate panic paths that lost their deferred releases.
	for i := 0; i < 3; i++ {
		p.Acquire()
	}
	if n := p.Leaked(); n != 3 {
		t.Fatalf("Leaked() = %d, want 3", n)
	}
}
