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
	"time"

	"isex/internal/baseline"
	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/dse"
	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/latency"
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

// runSelection dispatches one method. ctx bounds the exact methods
// (Optimal/Iterative are anytime searches); the linear-time baselines
// ignore it.
func runSelection(ctx context.Context, method Method, m *ir.Module, ninstr int, cfg core.Config) core.SelectionResult {
	switch method {
	case MethodOptimal:
		return core.SelectOptimalCtx(ctx, m, ninstr, cfg)
	case MethodIterative:
		return core.SelectIterativeCtx(ctx, m, ninstr, cfg)
	case MethodClubbing:
		return baseline.SelectClubbing(m, ninstr, cfg)
	case MethodMaxMISO:
		return baseline.SelectMaxMISO(m, ninstr, cfg)
	case MethodRecurrence:
		return baseline.SelectRecurrence(m, ninstr, cfg)
	}
	panic("unknown method " + method)
}

func simRunner(k *workload.Kernel, model *latency.Model) *sim.Runner {
	return &sim.Runner{Model: model, Setup: k.SetInputs}
}

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
	// Measure additionally patches each selection and validates the
	// speedup on the simulator.
	Measure bool
	// Deadline, when positive, bounds each selection call's wall clock;
	// cells that trip it report a degraded (lower-bound) status.
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
					sel := runSelection(ctx, method, prof, n, cfg)
					cancel()
					speedup, clamped := dse.EstSpeedup(base, sel.TotalMerit)
					cell := Cell{
						Instructions: len(sel.Instructions),
						Aborted:      sel.Stats.Aborted,
						Status:       sel.Status,
						Speedup:      speedup,
						Clamped:      clamped,
					}
					if opt.Measure && len(sel.Instructions) > 0 {
						ms, err := measure(k, sel, model, base)
						if err != nil {
							return nil, fmt.Errorf("%s/%s: %w", bname, method, err)
						}
						cell.Measured = ms
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

// measure patches a fresh copy of the kernel with sel's cuts (re-deriving
// the selection on the fresh module, since Selected references blocks of
// prof) and returns the measured speedup.
func measure(k *workload.Kernel, sel core.SelectionResult, model *latency.Model, base int64) (float64, error) {
	fresh, err := k.Prepare()
	if err != nil {
		return 0, err
	}
	// Re-map the selection onto the fresh module by function name and
	// block index.
	var mapped []core.Selected
	for _, s := range sel.Instructions {
		f := fresh.Func(s.Fn.Name)
		if f == nil || s.Block.Index >= len(f.Blocks) {
			return 0, fmt.Errorf("experiments: cannot remap selection")
		}
		mapped = append(mapped, core.Selected{
			Fn: f, Block: f.Blocks[s.Block.Index],
			InstrIndexes: s.InstrIndexes, Est: s.Est,
		})
	}
	if _, _, err := core.ApplySelection(fresh, mapped, model); err != nil {
		return 0, err
	}
	interp.ClearProfile(fresh)
	rep, err := simRunner(k, model).Run(fresh, k.Entry, k.Args...)
	if err != nil {
		return 0, err
	}
	if rep.Cycles <= 0 {
		return 0, fmt.Errorf("experiments: zero-cycle run")
	}
	return float64(base) / float64(rep.Cycles), nil
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
			g, err := dfg.Build(f, b, li)
			if err != nil {
				continue
			}
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
