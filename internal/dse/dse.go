// Package dse drives design-space-exploration sweeps over the
// (port-constraint × Ninstr × benchmark × hardware-target) grid of the
// paper's evaluation. One §6/§7 run answers "what do I gain at
// (Nin, Nout) with N instructions on this target"; an architect wants
// the whole surface. The sweep shares only the work the grid provably
// repeats:
//
//   - Ninstr prefixing. The iterative greedy loop is identical at every
//     instruction budget, so one run at max(Ninstr) yields every
//     smaller budget as a prefix (core.Selected.ChosenAt).
//   - One-time per-benchmark work. Building and profiling (Prepare)
//     happen once per benchmark, not once per cell, and each target's
//     baseline cycles are that profiling run priced under the target's
//     model (sim.FromProfile), not another build and run.
//
// Every search starts cold, so a constraint group's selection depends
// only on its own (benchmark, target, constraint) point and the groups
// are independent tasks. Warm mode runs one task per group at
// max(Ninstr) on Options.Workers goroutines, loosest constraint first:
// the loose groups search longest, so they start first and the short
// tight ones fill the tail. Each task searches its blocks serially, so
// even a budget-stopped search trips at the same cut count on every
// run. The report is therefore a function of Options alone —
// byte-identical for every worker count — and equal, cell for cell, to
// the cold reference (Options.Cold).
package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"isex/internal/core"
	"isex/internal/ir"
	"isex/internal/latency"
	"isex/internal/obs"
	"isex/internal/obs/analyze"
	"isex/internal/sim"
	"isex/internal/workload"
)

// Schema identifies the deterministic sweep report format.
const Schema = "isex-dse/v1"

// DefaultBudget is the per-selection search budget (cut evaluations),
// matching the experiments package default.
const DefaultBudget = 2_000_000

// Options configures a sweep. Start from DefaultOptions: Sweep fills
// empty axes from it, but boolean knobs keep their zero value as set.
type Options struct {
	// Benchmarks names workload kernels (workload.ByName).
	Benchmarks []string
	// Constraints lists (Nin, Nout) register-port grid points.
	Constraints [][2]int
	// Ninstr lists instruction budgets. The sweep runs each constraint
	// group once at max(Ninstr) and derives the smaller budgets as
	// greedy prefixes (bit-identical to dedicated runs).
	Ninstr []int
	// Targets names latency.Target hardware profiles.
	Targets []string
	// Budget bounds each block search (core.Config.MaxCuts).
	Budget int64
	// Workers is the number of selection tasks run at once in warm mode;
	// each task searches its blocks serially. Cold mode runs one task at
	// a time. Results do not depend on it.
	Workers int
	// Cold runs the reference mode: one dedicated serial selection per
	// cell, one at a time, without prefix sharing or concurrent tasks —
	// the oracle the warm sweep is checked against.
	Cold bool
	// Probe observes the sweep: each selection task runs under its own
	// cell span (obs.Probe.BeginCell) so the analyzer can attribute
	// search work to grid cells. All tasks may share one recorder — the
	// per-searcher rings and the mutex-guarded sys ring make that
	// race-clean. Purely observational: results do not depend on it.
	Probe *obs.Probe
	// Progress, when non-nil, receives live per-cell status (queued /
	// searching / done, current block and rung, completed-cell rates)
	// for the -progress terminal surface and the /sweep/status endpoint.
	// Purely observational.
	Progress *Progress
}

// DefaultOptions is the default grid: the Fig. 11 ADPCM pair on the
// paper target, the four §7 constraint points, budgets 1..16.
func DefaultOptions() Options {
	return Options{
		Benchmarks:  []string{"adpcmdecode", "adpcmencode"},
		Constraints: [][2]int{{2, 1}, {4, 2}, {4, 3}, {8, 4}},
		Ninstr:      []int{1, 2, 4, 8, 16},
		Targets:     []string{"paper"},
		Budget:      DefaultBudget,
		Workers:     runtime.NumCPU(),
	}
}

// Instr is one selected instruction in a cell, identified by the stable
// (function, block, instruction-positions) currency of the IR patcher.
type Instr struct {
	Fn           string  `json:"fn"`
	Block        string  `json:"block"`
	InstrIndexes []int   `json:"instrs"`
	Merit        int64   `json:"merit"`
	HWCycles     int     `json:"hwCycles"`
	Area         float64 `json:"area"`
}

// Cell is one grid point's outcome.
type Cell struct {
	Nin    int   `json:"nin"`
	Nout   int   `json:"nout"`
	Ninstr int   `json:"ninstr"`
	Merit  int64 `json:"merit"`
	// Speedup is the merit-model estimate base/(base-merit); Clamped
	// marks cells where the additive model promised more cycles than
	// the baseline has (see EstSpeedup).
	Speedup float64 `json:"speedup"`
	Clamped bool    `json:"clamped,omitempty"`
	Area    float64 `json:"area"`
	// Status is the worst per-block search status of the producing
	// selection ("exhaustive" = exact under the configured algorithm).
	Status       string  `json:"status"`
	Instructions []Instr `json:"instructions"`
}

// TargetReport is one benchmark's outcomes on one hardware target.
type TargetReport struct {
	Target         string        `json:"target"`
	BaselineCycles int64         `json:"baselineCycles"`
	Cells          []Cell        `json:"cells"`
	Pareto         []ParetoPoint `json:"pareto"`
}

// BenchmarkReport groups one benchmark's per-target reports.
type BenchmarkReport struct {
	Benchmark string         `json:"benchmark"`
	Targets   []TargetReport `json:"targets"`
}

// Report is the deterministic sweep result: no timestamps, wall-clocks
// or timing-dependent counters — byte-identical across worker counts
// (Stats carries the telemetry instead).
type Report struct {
	Schema      string            `json:"schema"`
	Mode        string            `json:"mode"`
	Budget      int64             `json:"budget"`
	Constraints [][2]int          `json:"constraints"`
	Ninstr      []int             `json:"ninstr"`
	Targets     []string          `json:"targets"`
	Benchmarks  []BenchmarkReport `json:"benchmarks"`
	// Attribution is the deterministic search-attribution section,
	// present only when the sweep ran under a tracing probe and the
	// caller merged it in (AttachAttribution). Cell spans key its
	// entries to this report's grid cells by (chain tag, Nin, Nout).
	Attribution *analyze.ExplainReport `json:"attribution,omitempty"`
}

// AttachAttribution lifts a recorded sweep trace into the causal span
// tree and merges the deterministic per-cell attribution into the
// report. The events are the merged recorder timeline of the sweep that
// produced rep (obs.Recorder.Merge or obs.ParseJSONL order).
func AttachAttribution(rep *Report, events []obs.Event) {
	exp := analyze.BuildExplain(analyze.Build(events))
	rep.Attribution = &exp
}

// Bytes renders the report as indented JSON with a trailing newline.
func (r *Report) Bytes() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Stats is the sweep's telemetry, kept out of Report so the report can
// be byte-compared. Only Elapsed depends on timing: the selection and
// identification counts are, like the report, a function of Options.
type Stats struct {
	Elapsed    time.Duration
	Selections int
	IdentCalls int
	// DedupHits, SeedHits and SeedMisses are always zero: no selection
	// adopts another block's identification or starts from another
	// search's incumbent. The pipeline benchmark (perfbench) reads them,
	// and the next change to that benchmark removes them.
	DedupHits  int
	SeedHits   int64
	SeedMisses int64
}

func (s *Stats) add(sel core.SelectionResult) {
	s.Selections++
	s.IdentCalls += sel.IdentCalls
}

// EstSpeedup estimates whole-program speedup from the additive merit
// model: base/(base-merit). Because block frequencies are profiled
// estimates, the summed merit can reach or exceed the baseline cycle
// count; the quotient is then meaningless (or negative), so the value
// is clamped to the maximum expressible speedup (all but one cycle
// removed, i.e. float64(base)) and the second result reports the clamp
// so downstream consumers — Pareto dominance in particular — can see
// the cell is saturated rather than silently trusting a sentinel.
func EstSpeedup(base, merit int64) (speedup float64, clamped bool) {
	if base <= 0 || merit <= 0 {
		return 1, false
	}
	if merit >= base {
		return float64(base), true
	}
	return float64(base) / float64(base-merit), false
}

// sweeper carries the per-sweep immutable state shared by all tasks.
type sweeper struct {
	opt     Options
	ninstr  []int // ascending
	budgets []int // each task's ninstr: the largest (warm) or each (cold)
	modules []*ir.Module
	models  []*latency.Model
}

// task is one selection of the sweep: a constraint group at the largest
// instruction budget in warm mode, one (constraint, ninstr) cell in cold
// mode. Tasks share nothing but the read-only prepared modules.
type task struct {
	bi, ti int    // benchmark and target index
	c      [2]int // (Nin, Nout)
	ninstr int
	sel    core.SelectionResult
}

// Sweep runs the grid and returns the deterministic report plus the
// run telemetry. The context bounds the whole sweep: on expiry the
// underlying searches degrade per the anytime ladder and cells report
// their Status accordingly.
func Sweep(ctx context.Context, opt Options) (*Report, *Stats, error) {
	start := time.Now()
	opt = opt.normalized()
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}

	s := &sweeper{opt: opt}
	s.ninstr = append([]int(nil), opt.Ninstr...)
	sort.Ints(s.ninstr)
	s.budgets = s.ninstr[len(s.ninstr)-1:]
	if opt.Cold {
		s.budgets = s.ninstr
	}

	s.models = make([]*latency.Model, len(opt.Targets))
	for i, name := range opt.Targets {
		t, err := latency.TargetByName(name)
		if err != nil {
			return nil, nil, err
		}
		s.models[i] = t.Model()
	}

	// One Build+Profile per benchmark for the whole sweep; selection
	// drivers are read-only on the module, so tasks share it.
	s.modules = make([]*ir.Module, len(opt.Benchmarks))
	for i, name := range opt.Benchmarks {
		k := workload.ByName(name)
		if k == nil {
			return nil, nil, fmt.Errorf("dse: unknown benchmark %q", name)
		}
		m, err := k.Prepare()
		if err != nil {
			return nil, nil, fmt.Errorf("dse: prepare %s: %w", name, err)
		}
		s.modules[i] = m
	}

	mode := map[bool]string{false: "warm", true: "cold"}[opt.Cold]
	tasks := s.tasks()
	if opt.Progress != nil {
		opt.Progress.begin(mode, s.progressKeys())
	}

	// Each (benchmark, target) baseline is Prepare's profiling run,
	// priced under the target's model. Then one job per task; nothing is
	// merged until every job is done, and then by index, so completion
	// order cannot reach the report.
	nt := len(opt.Targets)
	bases := make([]int64, len(opt.Benchmarks)*nt)
	for ci := range bases {
		bases[ci] = sim.FromProfile(s.modules[ci/nt], s.models[ci%nt]).Cycles
	}
	jobs := make([]func(), len(tasks))
	for i := range tasks {
		t := &tasks[i]
		jobs[i] = func() { s.run(ctx, t) }
	}
	workers := opt.Workers
	if opt.Cold {
		workers = 1
	}
	runJobs(workers, jobs)

	stats := &Stats{}
	cells := make([][]Cell, len(bases))
	for i := range tasks {
		t := &tasks[i]
		ci := t.bi*nt + t.ti
		ninstrs := s.ninstr
		if opt.Cold {
			ninstrs = []int{t.ninstr}
		}
		cells[ci] = append(cells[ci], cellsFrom(t.sel, ninstrs, bases[ci], t.c)...)
		stats.add(t.sel)
	}
	rep := &Report{
		Schema:      Schema,
		Mode:        mode,
		Budget:      opt.Budget,
		Constraints: opt.Constraints,
		Ninstr:      s.ninstr,
		Targets:     opt.Targets,
	}
	for bi, bname := range opt.Benchmarks {
		br := BenchmarkReport{Benchmark: bname}
		for ti, tname := range opt.Targets {
			cs := cells[bi*nt+ti]
			sort.Slice(cs, func(i, j int) bool {
				a, b := cs[i], cs[j]
				if a.Nin != b.Nin {
					return a.Nin < b.Nin
				}
				if a.Nout != b.Nout {
					return a.Nout < b.Nout
				}
				return a.Ninstr < b.Ninstr
			})
			br.Targets = append(br.Targets, TargetReport{
				Target:         tname,
				BaselineCycles: bases[bi*nt+ti],
				Cells:          cs,
				Pareto:         paretoFrontier(cs),
			})
		}
		rep.Benchmarks = append(rep.Benchmarks, br)
	}
	stats.Elapsed = time.Since(start)
	return rep, stats, nil
}

// tasks lists the sweep's selections in launch order: constraint points
// loosest first, and within one point the (benchmark, target) pairs in
// grid order. Cold mode has one task per instruction budget, warm mode
// one at the largest.
func (s *sweeper) tasks() []task {
	order := constraintOrder(s.opt.Constraints)
	var ts []task
	for i := len(order) - 1; i >= 0; i-- {
		for bi := range s.opt.Benchmarks {
			for ti := range s.opt.Targets {
				for _, n := range s.budgets {
					ts = append(ts, task{bi: bi, ti: ti, c: order[i], ninstr: n})
				}
			}
		}
	}
	return ts
}

// progressKeys lists the tasks' cells in grid order — benchmark,
// target, constraint tightest first, budget — for the live tracker.
func (s *sweeper) progressKeys() []cellKey {
	var keys []cellKey
	for _, b := range s.opt.Benchmarks {
		for _, t := range s.opt.Targets {
			for _, c := range constraintOrder(s.opt.Constraints) {
				for _, n := range s.budgets {
					keys = append(keys, cellKey{b + "/" + t, c[0], c[1], n})
				}
			}
		}
	}
	return keys
}

// run performs one task's selection under its own cell span and, with
// live progress on, its own Live sink keyed by the cell. The search
// (prunings, budget, serial block by block) is the same in warm and
// cold mode, which is what makes the two modes' cells equal.
func (s *sweeper) run(ctx context.Context, t *task) {
	chain := s.opt.Benchmarks[t.bi] + "/" + s.opt.Targets[t.ti]
	key := cellKey{chain, t.c[0], t.c[1], t.ninstr}
	probe := s.opt.Probe
	if pr := s.opt.Progress; pr != nil {
		probe = pr.sink(probe, key)
		pr.cellStart(key)
	}
	cp := probe.BeginCell(chain, t.c[0], t.c[1], t.ninstr)
	t.sel = core.SelectIterativeCtx(ctx, s.modules[t.bi], t.ninstr, core.Config{
		Nin:         t.c[0],
		Nout:        t.c[1],
		Model:       s.models[t.ti],
		MaxCuts:     s.opt.Budget,
		PruneInputs: true,
		PruneMerit:  true,
		Probe:       cp,
	})
	cp.EndCell(chain, t.c[0], t.c[1], t.sel.TotalMerit)
	if pr := s.opt.Progress; pr != nil {
		pr.cellDone(key, t.sel.TotalMerit)
	}
}

// runJobs runs jobs on n goroutines, each taking the next job in list
// order until none is left.
func runJobs(n int, jobs []func()) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n && w < len(jobs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				jobs[i]()
			}
		}()
	}
	wg.Wait()
}

// cellsFrom derives one cell per requested budget from a single
// selection via the greedy prefix property: the instructions with
// ChosenAt < n are bit-identical to a dedicated ninstr = n run.
func cellsFrom(sel core.SelectionResult, ninstrs []int, base int64, c [2]int) []Cell {
	cells := make([]Cell, 0, len(ninstrs))
	for _, n := range ninstrs {
		var instrs []Instr
		var merit int64
		var area float64
		for _, ins := range sel.Instructions {
			if ins.ChosenAt >= n {
				continue
			}
			instrs = append(instrs, Instr{
				Fn:           ins.Fn.Name,
				Block:        ins.Block.Name,
				InstrIndexes: append([]int(nil), ins.InstrIndexes...),
				Merit:        ins.Est.Merit,
				HWCycles:     ins.Est.HWCycles,
				Area:         ins.Est.Area,
			})
			merit += ins.Est.Merit
			area += ins.Est.Area
		}
		sp, clamped := EstSpeedup(base, merit)
		cells = append(cells, Cell{
			Nin:          c[0],
			Nout:         c[1],
			Ninstr:       n,
			Merit:        merit,
			Speedup:      sp,
			Clamped:      clamped,
			Area:         area,
			Status:       sel.Status.String(),
			Instructions: instrs,
		})
	}
	return cells
}

// constraintOrder returns the constraints sorted tightest-first
// (fewest total ports, then fewest inputs); the task queue walks it
// backwards.
func constraintOrder(cs [][2]int) [][2]int {
	out := append([][2]int(nil), cs...)
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i][0]+out[i][1], out[j][0]+out[j][1]
		if si != sj {
			return si < sj
		}
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func (o Options) normalized() Options {
	def := DefaultOptions()
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = def.Benchmarks
	}
	if len(o.Constraints) == 0 {
		o.Constraints = def.Constraints
	}
	if len(o.Ninstr) == 0 {
		o.Ninstr = def.Ninstr
	}
	if len(o.Targets) == 0 {
		o.Targets = def.Targets
	}
	if o.Budget <= 0 {
		o.Budget = def.Budget
	}
	if o.Workers <= 0 {
		o.Workers = def.Workers
	}
	return o
}

// validate rejects invalid grid values and repeated ones: a repeated
// value would run its cells twice and list them twice in the report.
func (o Options) validate() error {
	if err := unique("benchmark", o.Benchmarks); err != nil {
		return err
	}
	if err := unique("target", o.Targets); err != nil {
		return err
	}
	ports := make([]string, len(o.Constraints))
	for i, c := range o.Constraints {
		if c[0] < 1 || c[1] < 1 {
			return fmt.Errorf("dse: invalid constraint (%d,%d)", c[0], c[1])
		}
		ports[i] = fmt.Sprintf("%d/%d", c[0], c[1])
	}
	if err := unique("constraint", ports); err != nil {
		return err
	}
	for _, n := range o.Ninstr {
		if n < 1 {
			return fmt.Errorf("dse: invalid ninstr %d", n)
		}
	}
	return unique("ninstr", o.Ninstr)
}

// unique returns an error naming the first value of axis that vals
// lists twice.
func unique[T comparable](axis string, vals []T) error {
	seen := make(map[T]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			return fmt.Errorf("dse: %s %v listed twice", axis, v)
		}
		seen[v] = true
	}
	return nil
}
