// Package dse drives design-space-exploration sweeps over the
// (port-constraint × Ninstr × benchmark × hardware-target) grid of the
// paper's evaluation. One §6/§7 run answers "what do I gain at
// (Nin, Nout) with N instructions on this target"; an architect wants
// the whole surface, and the surface has enormous internal redundancy
// that a cell-at-a-time loop re-pays at every point:
//
//   - Constraint monotonicity. A cut legal at (2,1) is legal at every
//     (Nin′ ≥ 2, Nout′ ≥ 1), and cut merit does not depend on the port
//     constraints at all (core.Evaluate takes none). So the winners of
//     a tight grid point are legal incumbents — W−1 seeds via the
//     core.SeedBook — for every looser point, where they prune the
//     branch-and-bound from the first node.
//   - Ninstr prefixing. The iterative greedy loop is identical at every
//     instruction budget, so one run at max(Ninstr) yields every
//     smaller budget as a prefix (core.Selected.ChosenAt).
//   - One-time per-benchmark work. Building, profiling (Prepare) and
//     the baseline cycle simulation happen once per benchmark/target,
//     not once per cell.
//
// Parallelism and determinism. Budget-stopped searches are only
// reproducible when searched serially, and seed lookups are only
// reproducible when the book's content at lookup time is a
// deterministic function of program order. The sweep therefore runs
// each (benchmark, target) chain's constraint groups sequentially,
// tightest-first, with serial per-block searches; the parallelism is
// across chains and across the blocks of one selection call
// (Config.Parallel), all admission-gated by one shared core.CPUPool so
// sweep-level and search-level work draw from a single CPU budget and
// cannot oversubscribe the machine. Under this discipline the report is
// a function of Options alone — byte-identical for every worker count
// and shard order — and bit-identical to the cold serial reference
// (Options.Cold) wherever the searches complete, because every sharing
// mechanism is result-preserving on completed searches (DESIGN.md §16).
package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"isex/internal/core"
	"isex/internal/interp"
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
	// Workers sizes the shared admission pool: the number of block
	// searches in flight at once across the whole sweep. Results do not
	// depend on it.
	Workers int
	// Cold runs the reference mode: one dedicated serial selection per
	// cell, no seeding, no parallelism — the oracle the warm sweep is
	// benchmarked against.
	Cold bool
	// ShardSeed permutes the chain launch order. Results do not depend
	// on it — that is what the determinism tests assert.
	ShardSeed int64
	// Probe observes the sweep: each constraint group runs under its own
	// cell span (obs.Probe.BeginCell) so the analyzer can attribute
	// search work to grid cells. All chains may share one recorder — the
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
// and shard orders (Stats carries the telemetry instead).
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
// identification counts and the seed-book hits and misses are, like the
// report, a function of Options.
type Stats struct {
	Elapsed    time.Duration
	Selections int
	IdentCalls int
	// DedupHits is always zero: no selection adopts another block's
	// identification. The pipeline benchmark (perfbench) reads it, and
	// the next change to that benchmark removes it.
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

// sweeper carries the per-sweep immutable state shared by all chains.
type sweeper struct {
	opt     Options
	order   [][2]int // constraints, tightest-first
	ninstr  []int    // ascending
	nmax    int
	kernels []*workload.Kernel
	modules []*ir.Module
	models  []*latency.Model
	pool    *core.CPUPool
}

type chainOut struct {
	baseline int64
	cells    []Cell
	stats    Stats
	err      error
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
	s.order = constraintOrder(opt.Constraints)
	s.ninstr = append([]int(nil), opt.Ninstr...)
	sort.Ints(s.ninstr)
	s.nmax = s.ninstr[len(s.ninstr)-1]

	s.models = make([]*latency.Model, len(opt.Targets))
	for i, name := range opt.Targets {
		t, err := latency.TargetByName(name)
		if err != nil {
			return nil, nil, err
		}
		s.models[i] = t.Model()
	}

	// One Build+Profile per benchmark for the whole sweep; selection
	// drivers are read-only on the module, so chains share it.
	s.kernels = make([]*workload.Kernel, len(opt.Benchmarks))
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
		s.kernels[i], s.modules[i] = k, m
	}

	if opt.Progress != nil {
		var keys []cellKey
		for _, b := range opt.Benchmarks {
			for _, t := range opt.Targets {
				chain := b + "/" + t
				for _, c := range s.order {
					if opt.Cold {
						for _, n := range s.ninstr {
							keys = append(keys, cellKey{chain, c[0], c[1], n})
						}
					} else {
						keys = append(keys, cellKey{chain, c[0], c[1], s.nmax})
					}
				}
			}
		}
		opt.Progress.begin(map[bool]string{false: "warm", true: "cold"}[opt.Cold], keys)
	}

	nchains := len(opt.Benchmarks) * len(opt.Targets)
	outs := make([]chainOut, nchains)
	if opt.Cold {
		// Reference mode: strictly serial, deterministic chain order.
		for ci := 0; ci < nchains; ci++ {
			outs[ci] = s.runChain(ctx, ci/len(opt.Targets), ci%len(opt.Targets))
		}
	} else {
		s.pool = core.NewCPUPool(opt.Workers)
		var wg sync.WaitGroup
		// The launch permutation proves shard-order independence; the
		// merge below is by index, so it cannot influence the report.
		for _, ci := range rand.New(rand.NewSource(opt.ShardSeed)).Perm(nchains) {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				outs[ci] = s.runChain(ctx, ci/len(opt.Targets), ci%len(opt.Targets))
			}(ci)
		}
		wg.Wait()
		// Every admission slot must be back once no chain is left: a
		// shortfall means a block search lost its release, a leak that
		// would throttle a long-lived service forever.
		if n := s.pool.Leaked(); n > 0 {
			if p := opt.Probe; p != nil && p.Met != nil {
				p.Met.PoolLeaks.Add(int64(n))
			}
			opt.Probe.Sys(obs.KStall, "cpupool-leak", int64(n), int64(opt.Workers), 0)
		}
	}

	stats := &Stats{}
	rep := &Report{
		Schema:      Schema,
		Mode:        map[bool]string{false: "warm", true: "cold"}[opt.Cold],
		Budget:      opt.Budget,
		Constraints: opt.Constraints,
		Ninstr:      s.ninstr,
		Targets:     opt.Targets,
	}
	for bi, bname := range opt.Benchmarks {
		br := BenchmarkReport{Benchmark: bname}
		for ti, tname := range opt.Targets {
			out := outs[bi*len(opt.Targets)+ti]
			if out.err != nil {
				return nil, nil, fmt.Errorf("dse: %s/%s: %w", bname, tname, out.err)
			}
			stats.Selections += out.stats.Selections
			stats.IdentCalls += out.stats.IdentCalls
			stats.SeedHits += out.stats.SeedHits
			stats.SeedMisses += out.stats.SeedMisses
			br.Targets = append(br.Targets, TargetReport{
				Target:         tname,
				BaselineCycles: out.baseline,
				Cells:          out.cells,
				Pareto:         paretoFrontier(out.cells),
			})
		}
		rep.Benchmarks = append(rep.Benchmarks, br)
	}
	stats.Elapsed = time.Since(start)
	return rep, stats, nil
}

// runChain sweeps one (benchmark, target): baseline simulation once,
// then the constraint groups sequentially tightest-first so the seed
// book's content at every lookup is a deterministic function of the
// completed earlier groups.
func (s *sweeper) runChain(ctx context.Context, bi, ti int) chainOut {
	var out chainOut
	k, m, model := s.kernels[bi], s.modules[bi], s.models[ti]
	base, err := baselineCycles(k, model)
	if err != nil {
		out.err = fmt.Errorf("baseline: %w", err)
		return out
	}
	out.baseline = base

	// Observation plumbing: the chain's probe carries the shared
	// recorder (race-clean across chains) and, when live progress is
	// requested, a chain-scoped Live sink feeding the tracker. Each
	// constraint group then runs under its own cell span.
	chain := s.opt.Benchmarks[bi] + "/" + s.opt.Targets[ti]
	probe := s.opt.Probe
	if pr := s.opt.Progress; pr != nil {
		var lp obs.Probe
		if probe != nil {
			lp = *probe
		}
		prev := lp.Live
		lp.Live = func(e obs.Event) {
			if prev != nil {
				prev(e)
			}
			pr.live(chain, e)
		}
		probe = &lp
	}
	runCell := func(c [2]int, groupMax int, run func(cfg core.Config) core.SelectionResult) core.SelectionResult {
		if pr := s.opt.Progress; pr != nil {
			pr.cellStart(chain, c[0], c[1], groupMax)
		}
		cp := probe.BeginCell(chain, c[0], c[1], groupMax)
		cfg := s.cellConfigProbe(c, model, cp)
		sel := run(cfg)
		cp.EndCell(chain, c[0], c[1], sel.TotalMerit)
		if pr := s.opt.Progress; pr != nil {
			pr.cellDone(chain, c[0], c[1], groupMax, sel.TotalMerit)
		}
		return sel
	}

	var book *core.SeedBook
	if !s.opt.Cold {
		book = core.NewSeedBook()
	}
	for _, c := range s.order {
		if s.opt.Cold {
			for _, n := range s.ninstr {
				n := n
				sel := runCell(c, n, func(cfg core.Config) core.SelectionResult {
					return core.SelectIterativeCtx(ctx, m, n, cfg)
				})
				out.cells = append(out.cells, s.cellsFrom(sel, []int{n}, base, c)...)
				out.stats.add(sel)
			}
			continue
		}
		sel := runCell(c, s.nmax, func(cfg core.Config) core.SelectionResult {
			cfg = s.warmConfig(cfg, book)
			return core.SelectIterativeCtx(ctx, m, s.nmax, cfg)
		})
		out.cells = append(out.cells, s.cellsFrom(sel, s.ninstr, base, c)...)
		out.stats.add(sel)
	}
	if book != nil {
		out.stats.SeedHits, out.stats.SeedMisses = book.Stats()
	}
	sort.Slice(out.cells, func(i, j int) bool {
		a, b := out.cells[i], out.cells[j]
		if a.Nin != b.Nin {
			return a.Nin < b.Nin
		}
		if a.Nout != b.Nout {
			return a.Nout < b.Nout
		}
		return a.Ninstr < b.Ninstr
	})
	return out
}

// cellConfigProbe builds a cell's search configuration. The
// search-semantics knobs (prunings, budget) are identical in warm and
// cold mode — that is what makes the two modes' completed searches
// bit-identical; warm mode adds only the result-preserving sharing
// machinery (seeds, parallel block passes, pool gating).
func (s *sweeper) cellConfigProbe(c [2]int, model *latency.Model, probe *obs.Probe) core.Config {
	return core.Config{
		Nin:         c[0],
		Nout:        c[1],
		Model:       model,
		MaxCuts:     s.opt.Budget,
		PruneInputs: true,
		PruneMerit:  true,
		Probe:       probe,
	}
}

// warmConfig adds warm mode's result-preserving sharing machinery on
// top of the base cell configuration.
func (s *sweeper) warmConfig(cfg core.Config, book *core.SeedBook) core.Config {
	cfg.Seeds = book
	cfg.Pool = s.pool
	cfg.Parallel = true
	return cfg
}

// cellsFrom derives one cell per requested budget from a single
// selection via the greedy prefix property: the instructions with
// ChosenAt < n are bit-identical to a dedicated ninstr = n run.
func (s *sweeper) cellsFrom(sel core.SelectionResult, ninstrs []int, base int64, c [2]int) []Cell {
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

// baselineCycles simulates the unmodified kernel once under the
// target's model (mirrors experiments.BaselineCycles; duplicated here
// because experiments imports this package).
func baselineCycles(k *workload.Kernel, model *latency.Model) (int64, error) {
	m, err := k.Build()
	if err != nil {
		return 0, err
	}
	r := &sim.Runner{Model: model, Setup: func(env *interp.Env) error {
		for name, vals := range k.Inputs {
			if err := env.SetGlobal(name, vals); err != nil {
				return err
			}
		}
		return nil
	}}
	rep, err := r.Run(m, k.Entry, k.Args...)
	if err != nil {
		return 0, err
	}
	return rep.Cycles, nil
}

// constraintOrder returns the constraints sorted tightest-first
// (fewest total ports, then fewest inputs): monotone seeding wants
// tight winners in the book before loose points look them up.
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

func (o Options) validate() error {
	for _, c := range o.Constraints {
		if c[0] < 1 || c[1] < 1 {
			return fmt.Errorf("dse: invalid constraint (%d,%d)", c[0], c[1])
		}
	}
	for _, n := range o.Ninstr {
		if n < 1 {
			return fmt.Errorf("dse: invalid ninstr %d", n)
		}
	}
	return nil
}
