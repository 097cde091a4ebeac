// Package experiments regenerates every figure of the paper's evaluation
// (§8): the motivational cut analysis of Fig. 3, the search trace of
// Fig. 7, the cuts-considered scaling of Fig. 8, and the four-way
// algorithm comparison of Fig. 11, plus the in-text run-time and area
// claims. The same entry points back `go test -bench` targets in the
// repository root and the isebench command.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/dse"
	"isex/internal/ir"
	"isex/internal/latency"
	"isex/internal/pipeline"
	"isex/internal/report"
	"isex/internal/sim"
	"isex/internal/workload"
)

// DefaultBudget bounds each identification call (cuts considered); the
// paper reports multi-hour runs for loose constraints, which this valve
// replaces with a marked lower bound.
const DefaultBudget = 2_000_000

// Method names the compared identification/selection algorithms.
type Method string

const (
	MethodOptimal   Method = "Optimal"
	MethodIterative Method = "Iterative"
	MethodClubbing  Method = "Clubbing"
	MethodMaxMISO   Method = "MaxMISO"
	// MethodRecurrence is the template-generation school of §3 (refs 9,
	// 10): recurrent-pair clustering. Not part of Fig. 11, but available
	// for the §4 motivation study.
	MethodRecurrence Method = "Recurrence"
)

// AllMethods lists the Fig. 11 competitors in paper order.
var AllMethods = []Method{MethodOptimal, MethodIterative, MethodClubbing, MethodMaxMISO}

// name is the method's name in package pipeline.
func (m Method) name() string { return strings.ToLower(string(m)) }

// Cell is one method's outcome for one configuration.
type Cell struct {
	// Speedup is the estimated speedup (the paper's metric):
	// baseline cycles / (baseline cycles − total estimated merit).
	Speedup float64
	// Measured is the simulator-verified speedup after patching the
	// selected cuts in (0 when measurement was not requested).
	Measured float64
	// Instructions is how many special instructions were selected.
	Instructions int
	// Aborted marks identifications stopped by the cut budget: the value
	// is then a lower bound (the paper could not run Optimal on
	// adpcmdecode at all for the same reason).
	Aborted bool
	// Clamped marks cells whose summed merit reached or exceeded the
	// baseline cycle count: Speedup was capped at float64(baseline)
	// instead of being reported as a silently bogus quotient (see
	// dse.EstSpeedup). Profiled block frequencies make this possible.
	Clamped bool
	// Status is the worst per-block search status of the selection;
	// anything but Exhaustive means Speedup is a sound lower bound.
	Status core.SearchStatus
}

// ComparisonRow is one (benchmark, Nin, Nout, Ninstr) configuration of
// Fig. 11.
type ComparisonRow struct {
	Benchmark string
	Nin, Nout int
	Ninstr    int
	Cells     map[Method]Cell
}

// CompareOptions configure the Fig. 11 sweep.
type CompareOptions struct {
	Benchmarks  []string
	Constraints [][2]int // (Nin, Nout) pairs
	Ninstr      []int
	Budget      int64
	Methods     []Method
	// Measure runs each cell through pipeline.Run, which patches the
	// selection in, checks the patched program's outputs and measures
	// its cycles.
	Measure bool
	// Deadline, when positive, bounds each selection call's wall clock
	// (with Measure, counted from before the cell's compile and
	// profiling run); cells that trip it report a degraded
	// (lower-bound) status.
	Deadline time.Duration
	// Engine knobs, forwarded to core.Config for the exact methods
	// (Optimal/Iterative; the linear baselines ignore them). Both are
	// result-preserving on searches that complete, so Fig. 11 numbers
	// do not change — only the wall clock does.
	//
	// Workers sets the per-search worker count (0 = serial); Prune
	// enables the input-count and merit-bound prunings of both exact
	// searches (§6.1, and per cut §6.2).
	Workers int
	Prune   bool
}

// DefaultCompareOptions mirrors the paper's setup: three benchmarks,
// representative port constraints, up to 16 instructions.
func DefaultCompareOptions() CompareOptions {
	return CompareOptions{
		Benchmarks:  []string{"adpcmdecode", "adpcmencode", "gsmlpc"},
		Constraints: [][2]int{{2, 1}, {4, 2}, {4, 3}, {8, 4}},
		Ninstr:      []int{1, 2, 4, 8, 16},
		Budget:      DefaultBudget,
		Methods:     AllMethods,
		Measure:     false,
	}
}

// Compare runs the Fig. 11 sweep.
func Compare(opt CompareOptions) ([]ComparisonRow, error) {
	if opt.Budget == 0 {
		opt.Budget = DefaultBudget
	}
	if len(opt.Methods) == 0 {
		opt.Methods = AllMethods
	}
	model := latency.Default()
	var rows []ComparisonRow
	for _, bname := range opt.Benchmarks {
		k := workload.ByName(bname)
		if k == nil {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", bname)
		}
		prof, err := k.Prepare()
		if err != nil {
			return nil, err
		}
		base := sim.FromProfile(prof, model).Cycles
		for _, c := range opt.Constraints {
			cfg := core.Config{
				Nin: c[0], Nout: c[1], Model: model, MaxCuts: opt.Budget,
				Workers:     opt.Workers,
				PruneInputs: opt.Prune, PruneMerit: opt.Prune,
			}
			for _, n := range opt.Ninstr {
				row := ComparisonRow{
					Benchmark: bname, Nin: c[0], Nout: c[1], Ninstr: n,
					Cells: map[Method]Cell{},
				}
				for _, method := range opt.Methods {
					ctx, cancel := context.Background(), context.CancelFunc(func() {})
					if opt.Deadline > 0 {
						ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
					}
					cell, err := compareCell(ctx, k, prof, base, method, n, cfg, opt.Measure)
					cancel()
					if err != nil {
						return nil, fmt.Errorf("%s/%s: %w", bname, method, err)
					}
					row.Cells[method] = cell
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// estSpeedup is dse.EstSpeedup with the clamp flag dropped, for figure
// paths that render the estimate alone; Fig. 11 cells keep the flag
// (Cell.Clamped).
func estSpeedup(base, merit int64) float64 {
	s, _ := dse.EstSpeedup(base, merit)
	return s
}

// compareCell selects with method on the profiled module prof, whose
// run took base cycles; measure runs the selection through the pipeline
// instead, on a build of its own, and measures the patched program.
func compareCell(ctx context.Context, k *workload.Kernel, prof *ir.Module, base int64, method Method, ninstr int, cfg core.Config, measure bool) (Cell, error) {
	var sel core.SelectionResult
	var measured float64
	if measure {
		rep, err := pipeline.Run(ctx, k, pipeline.Options{Method: method.name(), Ninstr: ninstr, Config: cfg})
		if err != nil {
			return Cell{}, err
		}
		sel = rep.Selection
		if len(sel.Instructions) > 0 {
			measured = float64(rep.BaseCycles) / float64(rep.PatchedCycles)
		}
	} else {
		var err error
		if sel, err = pipeline.Select(ctx, method.name(), prof, ninstr, cfg); err != nil {
			return Cell{}, err
		}
	}
	speedup, clamped := dse.EstSpeedup(base, sel.TotalMerit)
	return Cell{
		Speedup:      speedup,
		Measured:     measured,
		Instructions: len(sel.Instructions),
		Aborted:      sel.Stats.Aborted,
		Clamped:      clamped,
		Status:       sel.Status,
	}, nil
}

// ComparisonTable renders Fig. 11 rows.
func ComparisonTable(rows []ComparisonRow, methods []Method, measured bool) string {
	t := &report.Table{
		Title:  "Fig. 11 — estimated speedup: Optimal vs Iterative vs Clubbing vs MaxMISO",
		Header: []string{"benchmark", "Nin", "Nout", "Ninstr"},
	}
	for _, m := range methods {
		t.Header = append(t.Header, string(m))
		if measured {
			t.Header = append(t.Header, string(m)+"(sim)")
		}
	}
	for _, r := range rows {
		cells := []any{r.Benchmark, r.Nin, r.Nout, r.Ninstr}
		for _, m := range methods {
			c := r.Cells[m]
			s := fmt.Sprintf("%.3f", c.Speedup)
			if c.Aborted || c.Status != core.Exhaustive {
				s += "*"
			}
			if c.Clamped {
				s += "†"
			}
			cells = append(cells, s)
			if measured {
				cells = append(cells, fmt.Sprintf("%.3f", c.Measured))
			}
		}
		t.AddRow(cells...)
	}
	return t.String() +
		"(* identification stopped early — cut budget, deadline, or recovered failure; value is a lower bound)\n" +
		"(† estimated merit reached the baseline cycle count; speedup clamped — trust the simulator column, not the estimate)\n"
}

// hotBlock returns the most frequently executed block that actually has
// identifiable work (at least a handful of non-forbidden operation
// nodes); loop-head blocks with a single compare would otherwise win on
// frequency alone.
func hotBlock(m *ir.Module) (*ir.Function, *ir.Block, *dfg.Graph) {
	const minCandidates = 5
	var bestF *ir.Function
	var bestB *ir.Block
	var bestG *dfg.Graph
	var bestScore int64 = -1
	for _, f := range m.Funcs {
		li := ir.Liveness(f)
		for _, b := range f.Blocks {
			g := dfg.Build(f, b, li)
			cand := 0
			for _, id := range g.OpOrder {
				if !g.Nodes[id].Forbidden {
					cand++
				}
			}
			if cand < minCandidates {
				continue
			}
			freq := b.Freq
			if freq <= 0 {
				freq = 1
			}
			if freq > bestScore {
				bestScore = freq
				bestF, bestB, bestG = f, b, g
			}
		}
	}
	return bestF, bestB, bestG
}

// Timed runs fn and returns its wall-clock duration.
func Timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
