// Command perfbench is the repository's pipeline benchmark. One process
// runs one workload as a closed loop with one client: the workload's job
// list is run round-robin, reshuffled by the seed on every pass, until
// the run length has passed. A job is the library pipeline — compile,
// optimize, profile, build DFGs, select, patch, simulate, re-check and
// emit Verilog — called layer by layer from this package (on dse-sweep,
// one design-space sweep).
//
// Every timing is a per-job best over that job's repetitions, never a
// percentile pooled across unlike jobs: on a shared 2-vCPU VM, code runs
// up to 1.6× slower for seconds at a time, and a best over a run's
// repetitions is what survives that. Slow phases that outlast a whole
// run still move the bests by 10–25% on the search-heavy workloads; the
// noise line (a register-only loop and a 1 MB random walk, timed at the
// start and end of the run) helps tell such a phase from a change in the
// program.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench -workload small-programs -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones; with -trace 1 alternate passes record one span
// per layer call and the metrics are the per-layer ones, including the
// tracing overhead against the untraced passes of the same run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"isex/internal/core"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outdir   string // where the traced run writes its Chrome trace; "" = nowhere
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timedJob collects every repetition of one job of the timed loop, or
// the single run of one sweep-verification job.
type timedJob struct {
	spec     *jobSpec // nil for the sweep job
	pipe     jobResult
	sweep    sweepResult
	fp       string
	repeated bool
	failures map[string]int

	wall, tracedWall []time.Duration
	cpu              []time.Duration
	alloc            []uint64
	util             []float64 // sweep: CPU ÷ (wall × pool size)
	spans            []int     // job spans of the traced repetitions
	attempted        int
	failed           int
}

func (j *timedJob) label() (name, ports, driver string) {
	if j.spec == nil {
		return "dse-sweep", "grid", "sweep"
	}
	return j.spec.name, fmt.Sprintf("%d/%d", j.spec.nin, j.spec.nout), j.spec.driver()
}

func (j *timedJob) fail(err error) {
	j.failed++
	if j.failures == nil {
		j.failures = map[string]int{}
	}
	j.failures[err.Error()]++
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloads))
	flag.Int64Var(&opt.seed, "seed", 1, "seed for inputs and job order")
	flag.Float64Var(&opt.seconds, "seconds", 30, "run length in seconds (at least one full pass runs)")
	flag.IntVar(&trace, "trace", 0, "1 records per-layer spans and reports per-layer metrics")
	flag.StringVar(&opt.outdir, "outdir", "", "directory for the traced run's Chrome trace")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	opt.trace = trace == 1
	res, err := bench(context.Background(), opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench runs one workload and returns its result line; per-job rows and
// the run's metadata go to w.
func bench(ctx context.Context, opt options, w io.Writer) (*result, error) {
	procs := runtime.GOMAXPROCS(0)
	meta := map[string]any{"workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds,
		"trace": opt.trace, "num_cpu": runtime.NumCPU(), "gomaxprocs": procs,
		"go": runtime.Version(), "commit": commit(), "ninstr": ninstr}
	noise := map[string]float64{"register_loop_ms_start": ms(registerLoop()),
		"random_walk_1mb_ms_start": ms(randomWalk())}

	t0 := time.Now()
	st, err := makeSetup(opt.workload)
	if err != nil {
		return nil, err
	}
	setups := []time.Duration{time.Since(t0)}

	var jobs []*timedJob
	for _, s := range st.jobs {
		jobs = append(jobs, &timedJob{spec: s, repeated: true})
	}
	if st.sweep != nil {
		jobs = append(jobs, &timedJob{repeated: true})
	}

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	rng := rand.New(rand.NewSource(opt.seed))
	minPasses := 1
	if opt.trace {
		minPasses = 2
	}
	_, gc0 := runtimeCounters()
	reps := 0
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		var t *tracer
		if pass%2 == 1 {
			t = tr
		}
		// setup_s is the median over one set-up per pass: the host's
		// memory speed swings within a fraction of a second, so set-ups
		// spread over the run agree across runs where back-to-back ones
		// do not.
		if pass > 0 {
			t0 := time.Now()
			if _, err := makeSetup(opt.workload); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0))
		}
		for _, i := range rng.Perm(len(jobs)) {
			if pass >= minPasses && !time.Now().Before(deadline) {
				break
			}
			runRep(ctx, jobs[i], st, t, procs)
			reps++
		}
	}
	_, gc1 := runtimeCounters()

	// On dse-sweep the pipeline layers run after the timed loop: one job
	// per cell of the first report at the pipeline's ninstr.
	pipeJobs := jobs
	var verify []*timedJob
	if st.sweep != nil {
		if rep := jobs[0].sweep.report; rep != nil {
			vjobs, want, err := verifyJobs(rep)
			if err != nil {
				jobs[0].fail(err)
			}
			for i, s := range vjobs {
				v := &timedJob{spec: s, repeated: true}
				runRep(ctx, v, st, tr, procs)
				if v.pipe.err == nil && want[i] >= 0 && v.pipe.merit != want[i] {
					v.fail(fmt.Errorf("cold selection merit %d, sweep cell merit %d", v.pipe.merit, want[i]))
				}
				verify = append(verify, v)
			}
		}
		pipeJobs = verify
	}
	noise["register_loop_ms_end"] = ms(registerLoop())
	noise["random_walk_1mb_ms_end"] = ms(randomWalk())

	res := &result{Metrics: map[string]metric{}}
	var medOverBest []float64
	for _, j := range append(slices.Clone(jobs), verify...) {
		res.Attempted += j.attempted
		res.Failed += j.failed
	}
	var slowest time.Duration
	for _, j := range jobs {
		if b := best(j.wall); b > 0 {
			medOverBest = append(medOverBest, float64(median(j.wall))/float64(b))
			slowest = max(slowest, b)
		}
	}
	res.Correct = res.Failed == 0
	meta["passes_min"] = minPasses
	meta["repetitions"] = reps
	meta["median_over_best_geomean"] = geomean(medOverBest)
	meta["job_ms_max"] = ms(slowest)
	meta["setup_ms"] = map[string]float64{"n": float64(len(setups)), "min": ms(best(setups)),
		"median": ms(median(setups)), "max": ms(slices.Max(setups))}

	if !opt.trace {
		endToEnd(res, jobs, pipeJobs, st, median(setups), meta)
	}
	writeRows(w, jobs, pipeJobs, st.sweep != nil)
	writeJSONLine(w, "meta", meta)
	writeJSONLine(w, "noise", noise)

	if opt.trace {
		layerMetrics(res, jobs, pipeJobs, tr, st, gc1-gc0, reps)
		if opt.outdir != "" {
			path := filepath.Join(opt.outdir, fmt.Sprintf("trace-%s-%d.json", opt.workload, opt.seed))
			if err := tr.writeChrome(path); err != nil {
				return nil, err
			}
			fmt.Fprintln(w, "trace written to", path)
		}
	}
	return res, nil
}

// runRep runs one repetition of j, timing it, checking it and, when t is
// non-nil, recording its spans.
func runRep(ctx context.Context, j *timedJob, st *setup, t *tracer, procs int) {
	a0, _ := runtimeCounters()
	c0 := cpuTime()
	w0 := time.Now()
	id := t.begin("job", 0)
	var err error
	var fp string
	if j.spec != nil {
		r := runPipeline(ctx, j.spec, t, id)
		err, fp = r.err, fmt.Sprint(r.fingerprint())
		if j.attempted == 0 {
			j.pipe = r
		}
	} else {
		r := runSweep(ctx, st.sweep, t, id)
		err, fp = r.err, string(r.digest[:])
		switch {
		case j.attempted == 0:
			j.sweep = r
		case err == nil && r.digest != j.sweep.digest:
			err = fmt.Errorf("sweep report differs from the first repetition's")
		}
	}
	t.end(id)
	wall := time.Since(w0)
	cpu := cpuTime() - c0
	a1, _ := runtimeCounters()

	if t != nil {
		j.tracedWall = append(j.tracedWall, wall)
		j.spans = append(j.spans, id)
	} else {
		j.wall = append(j.wall, wall)
	}
	j.cpu = append(j.cpu, cpu)
	j.alloc = append(j.alloc, a1-a0)
	if j.spec == nil && wall > 0 {
		j.util = append(j.util, float64(cpu)/(float64(wall)*float64(procs)))
	}
	if j.attempted == 0 {
		j.fp = fp
	} else if fp != j.fp {
		j.repeated = false
	}
	j.attempted++
	if err != nil {
		j.fail(err)
	}
}

// endToEnd fills the untraced run's metrics. Job timings are reported
// as rates: the host's slow phases outlast a run and move every timing by
// up to 1.3×, which as a rate stays inside a 25% bound and as a time
// does not. The same figures as times go to the meta line.
func endToEnd(res *result, jobs, pipeJobs []*timedJob, st *setup, setupTime time.Duration, meta map[string]any) {
	var wall, cpu time.Duration
	var rates, allocMB []float64
	for _, j := range jobs {
		b := best(j.wall)
		wall += b
		cpu += best(j.cpu)
		rates = append(rates, 1/b.Seconds())
		allocMB = append(allocMB, float64(slices.Min(j.alloc))/1e6)
	}
	n := float64(len(jobs))
	meta["job_ms_geomean"] = 1e3 / geomean(rates)
	meta["cpu_ms_per_job"] = ms(cpu) / n
	q := quality(jobs, pipeJobs, st)
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", setupTime.Seconds())
	set("jobs_per_s", "jobs/s", n/wall.Seconds())
	set("job_rate_geomean", "jobs/s", geomean(rates))
	set("jobs_per_cpu_s", "jobs/cpu-s", n/cpu.Seconds())
	set("alloc_mb_per_job", "MB", mean(allocMB))
	set("ok_frac", "ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	set("exhaustive_frac", "ratio", q.exhaustive)
	set("speedup_geomean", "x", q.speedup)
	set("gain_fidelity", "ratio", q.fidelity)
}

type qualityMetrics struct{ exhaustive, speedup, fidelity float64 }

// quality derives the deterministic answer-quality metrics from the
// first repetition of every job. On dse-sweep, exhaustiveness and
// speedup are the sweep cells' own, and fidelity comes from patching
// and simulating the verified cells.
func quality(jobs, pipeJobs []*timedJob, st *setup) qualityMetrics {
	var q qualityMetrics
	var blocks, exh int
	var saved, merit int64
	var speedups []float64
	for _, j := range pipeJobs {
		r := &j.pipe
		blocks += r.blocks
		exh += r.exhaustive
		saved += r.baseCycles - r.patchedCycles
		merit += r.merit
		if r.patchedCycles > 0 {
			speedups = append(speedups, float64(r.baseCycles)/float64(r.patchedCycles))
		}
	}
	if blocks > 0 {
		q.exhaustive = float64(exh) / float64(blocks)
	}
	if merit > 0 {
		q.fidelity = float64(saved) / float64(merit)
	}
	q.speedup = geomean(speedups)
	if st.sweep != nil {
		speedups, exh, blocks = nil, 0, 0
		if rep := jobs[0].sweep.report; rep != nil {
			for _, b := range rep.Benchmarks {
				for _, t := range b.Targets {
					for _, c := range t.Cells {
						blocks++
						if c.Status == core.Exhaustive.String() {
							exh++
						}
						speedups = append(speedups, c.Speedup)
					}
				}
			}
		}
		q.exhaustive, q.speedup = 0, geomean(speedups)
		if blocks > 0 {
			q.exhaustive = float64(exh) / float64(blocks)
		}
	}
	return q
}

// layers are the pipeline layers spanned in runPipeline, with the
// per-layer time metric each one reports.
var layers = []string{"minic", "passes", "interp", "dfg", "core.select", "core.patch", "sim", "rtl"}

// layerMetrics fills the traced run's metrics. A layer's time is its
// span self time summed within one repetition, best over the job's
// traced repetitions, averaged over the jobs that ran the layer.
func layerMetrics(res *result, jobs, pipeJobs []*timedJob, tr *tracer, st *setup, gcCPU time.Duration, reps int) {
	self := tr.selfTimes()
	perRep := map[int]map[string]time.Duration{} // job span → layer → self time
	for _, s := range tr.spans {
		if s.parent == 0 {
			continue
		}
		if perRep[s.parent] == nil {
			perRep[s.parent] = map[string]time.Duration{}
		}
		perRep[s.parent][s.name] += self[s.id]
	}
	layerBest := func(j *timedJob, layer string) (time.Duration, bool) {
		var b time.Duration
		found := false
		for _, id := range j.spans {
			if d, ok := perRep[id][layer]; ok && (!found || d < b) {
				b, found = d, true
			}
		}
		return b, found
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	for _, l := range layers {
		var sum time.Duration
		n := 0
		for _, j := range pipeJobs {
			if d, ok := layerBest(j, l); ok {
				sum += d
				n++
			}
		}
		v := 0.0
		if n > 0 {
			v = ms(sum) / float64(n)
		}
		set(l+".ms_per_job", "ms", v)
	}

	var ir, nodes, steps, instrs, cuts, passed, ident, blocks, rescued, selected, afus, vbytes int64
	var stopNS, stopCuts, allNS int64
	repeated := 0
	for _, j := range pipeJobs {
		r := &j.pipe
		ir += r.irInstrs
		nodes += r.dfgNodes
		steps += r.interpSteps
		instrs += r.simInstrs
		cuts += r.cuts
		passed += r.passed
		ident += r.identCalls
		blocks += int64(r.blocks)
		rescued += int64(r.rescued)
		selected += int64(r.selected)
		afus += int64(r.afus)
		vbytes += r.verilogBytes
		d, _ := layerBest(j, "core.select")
		allNS += d.Nanoseconds()
		if r.status == core.BudgetStopped {
			stopNS += d.Nanoseconds()
			stopCuts += r.cuts
		}
	}
	for _, j := range jobs {
		if j.repeated {
			repeated++
		}
	}
	n := float64(max(len(pipeJobs), 1))
	per := func(v int64) float64 { return float64(v) / n }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	// ns_per_cut prices the constraint kernel where the budget, not the
	// pruning, ends the search; without budget-stopped jobs it falls back
	// to every job.
	if stopCuts == 0 {
		stopNS, stopCuts = allNS, cuts
	}
	set("passes.ir_instrs_per_job", "count", per(ir))
	set("dfg.nodes_per_job", "count", per(nodes))
	set("interp.steps_per_job", "count", per(steps))
	set("sim.instrs_per_job", "count", per(instrs))
	set("core.select.cuts_per_job", "count", per(cuts))
	set("core.select.ns_per_cut", "ns", ratio(stopNS, stopCuts))
	set("core.select.passed_frac", "ratio", ratio(passed, cuts))
	set("core.select.ident_calls_per_job", "count", per(ident))
	set("core.select.rescue_frac", "ratio", ratio(rescued, blocks))
	set("core.select.work_repeat_frac", "ratio", float64(repeated)/float64(len(jobs)))
	set("core.patch.materialized_frac", "ratio", ratio(afus, selected))
	set("rtl.kb_per_job", "KB", per(vbytes)/1024)

	var sel, identSweep, dedup, seedHits, seedTotal float64
	var util float64
	if st.sweep != nil {
		if s := jobs[0].sweep.stats; s != nil {
			sel, identSweep, dedup = float64(s.Selections), float64(s.IdentCalls), float64(s.DedupHits)
			seedHits, seedTotal = float64(s.SeedHits), float64(s.SeedHits+s.SeedMisses)
		}
		util = median(jobs[0].util)
	}
	set("dse.selections_per_sweep", "count", sel)
	set("dse.ident_calls_per_sweep", "count", identSweep)
	set("dse.dedup_hits_per_sweep", "count", dedup)
	frac := 0.0
	if seedTotal > 0 {
		frac = seedHits / seedTotal
	}
	set("dse.seed_hit_frac", "ratio", frac)
	set("dse.cpu_util", "ratio", util)
	set("runtime.gc_ms_per_job", "ms", ms(gcCPU)/float64(max(reps, 1)))
	set("runtime.peak_rss_mb", "MB", peakRSSMB())

	var traced, untraced time.Duration
	for _, j := range jobs {
		if len(j.wall) > 0 && len(j.tracedWall) > 0 {
			traced += best(j.tracedWall)
			untraced += best(j.wall)
		}
	}
	set("trace.overhead_frac", "ratio", float64(traced)/float64(untraced)-1)
}

// writeRows prints one row per job, so a move in a workload metric can be
// traced to programs.
func writeRows(w io.Writer, jobs, pipeJobs []*timedJob, sweep bool) {
	row := func(kind string, j *timedJob) {
		name, ports, driver := j.label()
		all := append(slices.Clone(j.wall), j.tracedWall...)
		status, cuts, speedup := "", int64(0), 0.0
		if j.spec != nil {
			status, cuts = j.pipe.status.String(), j.pipe.cuts
			if j.pipe.patchedCycles > 0 {
				speedup = float64(j.pipe.baseCycles) / float64(j.pipe.patchedCycles)
			}
		} else if j.sweep.report != nil {
			status = "report " + fmt.Sprintf("%x", j.sweep.digest[:6])
		}
		fmt.Fprintf(w, "%-6s %-22s ports=%-5s driver=%-9s reps=%-3d best_ms=%9.3f median_ms=%9.3f cuts=%-9d status=%-16s speedup=%.4f repeat=%t",
			kind, name, ports, driver, j.attempted, ms(best(all)), ms(median(all)), cuts, status, speedup, j.repeated)
		for msg, n := range j.failures {
			fmt.Fprintf(w, " FAIL(%d): %s", n, msg)
		}
		fmt.Fprintln(w)
	}
	for _, j := range jobs {
		row("job", j)
	}
	if sweep {
		for _, j := range pipeJobs {
			row("verify", j)
		}
	}
}

func writeJSONLine(w io.Writer, key string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(w, "%s: %v\n", key, err)
		return
	}
	fmt.Fprintf(w, "%s: %s\n", key, b)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func best(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return slices.Min(ds)
}

func median[T time.Duration | float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
