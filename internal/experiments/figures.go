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
	"isex/internal/minic"
	"isex/internal/passes"
	"isex/internal/report"
	"isex/internal/sim"
	"isex/internal/workload"
)

// ---------------------------------------------------------------------------
// Fig. 3 — the motivational adpcmdecode analysis.

// Fig3Row describes the best cut of the decoder's hottest block under one
// port constraint.
type Fig3Row struct {
	Nin, Nout  int
	Size       int
	In, Out    int
	Saved      int64
	Components int
	Ops        string
}

// Fig3 identifies the best single cut of adpcmdecode's hottest block for
// the constraints discussed around Fig. 3: (2,1) yields the M1-style
// approximate multiplication, (3,1) extends it with the
// accumulate/saturate chain (M2), and with more ports the identification
// adds disconnected companions (M2+M3).
func Fig3(budget int64) ([]Fig3Row, error) {
	k := workload.ByName("adpcmdecode")
	m, err := k.Prepare()
	if err != nil {
		return nil, err
	}
	_, _, g := hotBlock(m)
	if g == nil {
		return nil, fmt.Errorf("experiments: no identifiable block in adpcmdecode")
	}
	model := latency.Default()
	var rows []Fig3Row
	for _, c := range [][2]int{{2, 1}, {3, 1}, {4, 2}, {6, 3}} {
		res := core.FindBestCut(g, core.Config{Nin: c[0], Nout: c[1], Model: model, MaxCuts: budget})
		row := Fig3Row{Nin: c[0], Nout: c[1]}
		if res.Found {
			row.Size = res.Est.Size
			row.In = res.Est.In
			row.Out = res.Est.Out
			row.Saved = res.Est.Saved
			row.Components = res.Est.Components
			row.Ops = opMultiset(g, res.Cut)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func opMultiset(g *dfg.Graph, c dfg.Cut) string {
	count := map[string]int{}
	for _, id := range c {
		count[g.Nodes[id].Op.String()]++
	}
	var keys []string
	for k := range count {
		keys = append(keys, k)
	}
	sortStrings(keys)
	var parts []string
	for _, k := range keys {
		if count[k] > 1 {
			parts = append(parts, fmt.Sprintf("%s×%d", k, count[k]))
		} else {
			parts = append(parts, k)
		}
	}
	return strings.Join(parts, " ")
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Fig3Table renders the rows.
func Fig3Table(rows []Fig3Row) string {
	t := &report.Table{
		Title:  "Fig. 3 — best single cut of the adpcmdecode hot block by port constraint",
		Header: []string{"Nin", "Nout", "size", "in", "out", "comps", "saved/exec", "operations"},
	}
	for _, r := range rows {
		t.AddRow(r.Nin, r.Nout, r.Size, r.In, r.Out, r.Components, r.Saved, r.Ops)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Fig. 7 — the search trace on the four-node example of Fig. 4.

// Fig7Result carries the trace statistics of the worked example.
type Fig7Result struct {
	Considered, Passed, Failed, Eliminated int64
}

// Fig4ExampleGraph reconstructs the four-node graph of Fig. 4 (see the
// node numbering in core's tests: + feeding * and >>, >> feeding the
// second +; two block outputs).
func Fig4ExampleGraph() (*dfg.Graph, error) {
	b := ir.NewBuilder("fig4", 5)
	p := b.Fn.Params
	t := b.Op(ir.OpAdd, p[0], p[1]) // paper node 3
	u := b.Op(ir.OpAShr, t, p[2])   // paper node 2
	v := b.Op(ir.OpMul, t, p[3])    // paper node 1
	w := b.Op(ir.OpAdd, u, p[4])    // paper node 0
	next := b.NewBlock("next")
	b.Jump(next)
	b.SetBlock(next)
	b.Ret(b.Op(ir.OpXor, v, w))
	f := b.Finish()
	return dfg.Build(f, f.Entry(), ir.Liveness(f))
}

// Fig7 runs the identification with Nout = 1 on the example and returns
// the trace statistics (paper: 11 considered, 5 passed, 6 failed, 4
// eliminated).
func Fig7() (Fig7Result, error) {
	g, err := Fig4ExampleGraph()
	if err != nil {
		return Fig7Result{}, err
	}
	res := core.FindBestCut(g, core.Config{Nin: 100, Nout: 1})
	return Fig7Result{
		Considered: res.Stats.CutsConsidered,
		Passed:     res.Stats.Passed,
		Failed:     res.Stats.Pruned,
		Eliminated: 15 - res.Stats.CutsConsidered,
	}, nil
}

// Fig7Table renders the result next to the paper's numbers.
func Fig7Table(r Fig7Result) string {
	t := &report.Table{
		Title:  "Fig. 7 — search trace on the Fig. 4 example (Nout=1)",
		Header: []string{"quantity", "paper", "this run"},
	}
	t.AddRow("cuts considered", 11, r.Considered)
	t.AddRow("passed both checks", 5, r.Passed)
	t.AddRow("failed a check", 6, r.Failed)
	t.AddRow("eliminated unvisited", 4, r.Eliminated)
	return t.String()
}

// ---------------------------------------------------------------------------
// Fig. 8 — cuts considered vs. graph size.

// Fig8Point is one basic block's measurement.
type Fig8Point struct {
	Kernel, Fn, Block string
	N                 int // operation nodes
	Cuts              int64
	Aborted           bool
}

// Fig8 measures, for every basic block of the whole suite, the number of
// cuts the identification considers with Nout = 2 and unconstrained Nin
// (exactly the setting of Fig. 8).
func Fig8(budget int64) ([]Fig8Point, error) {
	blocks, err := workload.RealBlockGraphs()
	if err != nil {
		return nil, err
	}
	var points []Fig8Point
	for _, bi := range blocks {
		cand := 0
		for _, id := range bi.Graph.OpOrder {
			if !bi.Graph.Nodes[id].Forbidden {
				cand++
			}
		}
		if cand < 2 {
			continue // nothing identifiable in this block
		}
		res := core.FindBestCut(bi.Graph, core.Config{Nin: 1 << 30, Nout: 2, MaxCuts: budget})
		points = append(points, Fig8Point{
			Kernel: bi.Kernel, Fn: bi.Fn, Block: bi.Block,
			N: bi.Graph.NumOps(), Cuts: res.Stats.CutsConsidered,
			Aborted: res.Stats.Aborted,
		})
	}
	return points, nil
}

// Fig8Series renders the points with N², N³ and N⁴ reference columns.
func Fig8Series(points []Fig8Point) string {
	s := &report.Series{
		Title:  "Fig. 8 — cuts considered vs. graph nodes (Nout=2, any Nin)",
		XLabel: "N",
		YLabel: "cuts",
	}
	for _, p := range points {
		label := fmt.Sprintf("%s/%s/%s", p.Kernel, p.Fn, p.Block)
		if p.Aborted {
			label += " (budget)"
		}
		s.Add(float64(p.N), float64(p.Cuts), label)
	}
	var sb strings.Builder
	sb.WriteString(s.String())
	sb.WriteString("\nreference: N^2, N^3, N^4 at matching N\n")
	seen := map[int]bool{}
	for _, p := range points {
		if seen[p.N] {
			continue
		}
		seen[p.N] = true
		n := float64(p.N)
		fmt.Fprintf(&sb, "N=%-4d N^2=%-12.0f N^3=%-14.0f N^4=%.0f\n", p.N, n*n, n*n*n, n*n*n*n)
	}
	return sb.String()
}

// Fig8WithinPolynomialBand reports how many points fall at or below the
// N^4 curve (the paper: all practical cases within polynomial bounds).
func Fig8WithinPolynomialBand(points []Fig8Point) (within, total int) {
	for _, p := range points {
		n := float64(p.N)
		if float64(p.Cuts) <= n*n*n*n {
			within++
		}
		total++
	}
	return within, total
}

// ---------------------------------------------------------------------------
// §8 in-text: run time by constraint; area of chosen datapaths.

// RuntimeRow is one identification wall-clock measurement.
type RuntimeRow struct {
	Benchmark string
	Nin, Nout int
	Duration  time.Duration
	Cuts      int64
	Aborted   bool
}

// Runtime measures SelectIterative wall-clock per benchmark × constraint
// (§8: "in all but extreme cases it took only some seconds; ... with
// loose constraints, run times were in the order of hours").
func Runtime(benchmarks []string, constraints [][2]int, ninstr int, budget int64) ([]RuntimeRow, error) {
	var rows []RuntimeRow
	for _, bname := range benchmarks {
		k := workload.ByName(bname)
		if k == nil {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", bname)
		}
		m, err := k.Prepare()
		if err != nil {
			return nil, err
		}
		for _, c := range constraints {
			cfg := core.Config{Nin: c[0], Nout: c[1], MaxCuts: budget}
			var sel core.SelectionResult
			d := Timed(func() { sel = core.SelectIterative(m, ninstr, cfg) })
			rows = append(rows, RuntimeRow{
				Benchmark: bname, Nin: c[0], Nout: c[1],
				Duration: d, Cuts: sel.Stats.CutsConsidered, Aborted: sel.Stats.Aborted,
			})
		}
	}
	return rows, nil
}

// RuntimeTable renders runtime rows.
func RuntimeTable(rows []RuntimeRow) string {
	t := &report.Table{
		Title:  "§8 — identification run time by constraint (Iterative, Ninstr=16)",
		Header: []string{"benchmark", "Nin", "Nout", "time", "cuts considered", "budget hit"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Nin, r.Nout, r.Duration.Round(time.Millisecond).String(), r.Cuts, r.Aborted)
	}
	return t.String()
}

// AreaRow summarizes the datapath investment for one benchmark.
type AreaRow struct {
	Benchmark string
	Nin, Nout int
	Ninstr    int
	TotalArea float64 // MAC-equivalents
	MaxArea   float64
}

// Area evaluates the silicon cost of the selected datapaths (§8: "the
// area investment ... was within the area of a couple of
// multiply-accumulators").
func Area(benchmarks []string, nin, nout, ninstr int, budget int64) ([]AreaRow, error) {
	model := latency.Default()
	var rows []AreaRow
	for _, bname := range benchmarks {
		k := workload.ByName(bname)
		if k == nil {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", bname)
		}
		m, err := k.Prepare()
		if err != nil {
			return nil, err
		}
		cfg := core.Config{Nin: nin, Nout: nout, Model: model, MaxCuts: budget}
		sel := core.SelectIterative(m, ninstr, cfg)
		row := AreaRow{Benchmark: bname, Nin: nin, Nout: nout, Ninstr: ninstr}
		for _, s := range sel.Instructions {
			row.TotalArea += s.Est.Area
			if s.Est.Area > row.MaxArea {
				row.MaxArea = s.Est.Area
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AreaTable renders area rows.
func AreaTable(rows []AreaRow) string {
	t := &report.Table{
		Title:  "§8 — area of selected datapaths (normalized: 32-bit MAC = 1.0)",
		Header: []string{"benchmark", "Nin", "Nout", "Ninstr", "total area", "largest AFU"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Nin, r.Nout, r.Ninstr, fmt.Sprintf("%.3f", r.TotalArea), fmt.Sprintf("%.3f", r.MaxArea))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Ablations (extensions beyond the paper, DESIGN.md §6).

// AblationRow contrasts search effort with optional prunings.
type AblationRow struct {
	Benchmark  string
	Nin, Nout  int
	Baseline   int64 // cuts considered, paper configuration
	InputPrune int64
	MeritPrune int64
	BothPrune  int64
}

// Ablation measures how the two optional prunings shrink the search on
// each benchmark's hottest block.
func Ablation(benchmarks []string, constraints [][2]int, budget int64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, bname := range benchmarks {
		k := workload.ByName(bname)
		if k == nil {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", bname)
		}
		m, err := k.Prepare()
		if err != nil {
			return nil, err
		}
		_, _, g := hotBlock(m)
		if g == nil {
			return nil, fmt.Errorf("experiments: no identifiable block in %q", bname)
		}
		for _, c := range constraints {
			mk := func(pi, pm bool) int64 {
				cfg := core.Config{Nin: c[0], Nout: c[1], MaxCuts: budget,
					PruneInputs: pi, PruneMerit: pm}
				return core.FindBestCut(g, cfg).Stats.CutsConsidered
			}
			rows = append(rows, AblationRow{
				Benchmark: bname, Nin: c[0], Nout: c[1],
				Baseline:   mk(false, false),
				InputPrune: mk(true, false),
				MeritPrune: mk(false, true),
				BothPrune:  mk(true, true),
			})
		}
	}
	return rows, nil
}

// AblationTable renders ablation rows.
func AblationTable(rows []AblationRow) string {
	t := &report.Table{
		Title:  "Ablation — cuts considered with optional prunings (hot block)",
		Header: []string{"benchmark", "Nin", "Nout", "paper", "+input", "+merit", "+both"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Nin, r.Nout, r.Baseline, r.InputPrune, r.MeritPrune, r.BothPrune)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Extension (§9 future work): selection under an area constraint.

// TradeoffRow is one point of the merit-vs-area-budget curve.
type TradeoffRow struct {
	Benchmark string
	Budget    float64 // MAC-equivalents
	Speedup   float64
	UsedArea  float64
	Chosen    int
}

// AreaTradeoff sweeps area budgets for one benchmark at (nin, nout),
// realizing the paper's §9 "instruction selection under area constraint"
// with the knapsack selector.
func AreaTradeoff(bench string, nin, nout, ninstr int, budgets []float64, cutBudget int64) ([]TradeoffRow, error) {
	k := workload.ByName(bench)
	if k == nil {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", bench)
	}
	model := latency.Default()
	m, err := k.Prepare()
	if err != nil {
		return nil, err
	}
	base := sim.FromProfile(m, model).Cycles
	cfg := core.Config{Nin: nin, Nout: nout, Model: model, MaxCuts: cutBudget}
	var rows []TradeoffRow
	for _, b := range budgets {
		sel := core.SelectAreaConstrained(m, ninstr, b, 2*ninstr, cfg)
		var used float64
		for _, s := range sel.Instructions {
			used += s.Est.Area
		}
		rows = append(rows, TradeoffRow{
			Benchmark: bench, Budget: b,
			Speedup:  estSpeedup(base, sel.TotalMerit),
			UsedArea: used, Chosen: len(sel.Instructions),
		})
	}
	return rows, nil
}

// AreaTradeoffTable renders the curve.
func AreaTradeoffTable(rows []TradeoffRow) string {
	t := &report.Table{
		Title:  "Extension — speedup vs. area budget (§9 future work, knapsack selection)",
		Header: []string{"benchmark", "area budget", "speedup", "area used", "instructions"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, fmt.Sprintf("%.2f", r.Budget), fmt.Sprintf("%.3f", r.Speedup),
			fmt.Sprintf("%.3f", r.UsedArea), r.Chosen)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Extension (§9): effect of issue width on ISE gain.

// VLIWRow is one (benchmark, width) measurement.
type VLIWRow struct {
	Benchmark string
	Width     int
	Base      int64
	Patched   int64
	Speedup   float64
}

// VLIWStudy selects ISEs at (nin, nout) and evaluates the same selection
// on statically scheduled machines of increasing issue width — the §9
// caveat that the paper's single-issue model overstates gains on VLIWs.
func VLIWStudy(bench string, nin, nout, ninstr int, widths []int, cutBudget int64) ([]VLIWRow, error) {
	k := workload.ByName(bench)
	if k == nil {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", bench)
	}
	model := latency.Default()
	base, err := k.Prepare()
	if err != nil {
		return nil, err
	}
	patched, err := k.Prepare()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Nin: nin, Nout: nout, Model: model, MaxCuts: cutBudget}
	sel := core.SelectIterative(patched, ninstr, cfg)
	if len(sel.Instructions) > 0 {
		if _, _, err := core.ApplySelection(patched, sel.Instructions, model); err != nil {
			return nil, err
		}
	}
	var rows []VLIWRow
	for _, w := range widths {
		cb, err := sim.VLIWCycles(base, model, w)
		if err != nil {
			return nil, err
		}
		cp, err := sim.VLIWCycles(patched, model, w)
		if err != nil {
			return nil, err
		}
		sp := 0.0
		if cp > 0 {
			sp = float64(cb) / float64(cp)
		}
		rows = append(rows, VLIWRow{Benchmark: bench, Width: w, Base: cb, Patched: cp, Speedup: sp})
	}
	return rows, nil
}

// VLIWTable renders the study.
func VLIWTable(rows []VLIWRow) string {
	t := &report.Table{
		Title:  "Extension — ISE speedup vs. issue width (§9: the single-issue model overstates VLIW gains)",
		Header: []string{"benchmark", "issue width", "base cycles", "patched cycles", "speedup"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Width, r.Base, r.Patched, fmt.Sprintf("%.3f", r.Speedup))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// §4 motivation: recurrence-based identification finds only small clusters.

// MotivationRow compares cluster sizes of the recurrence school against
// the exact search on one benchmark.
type MotivationRow struct {
	Benchmark         string
	Nin, Nout         int
	RecurrenceMax     int
	RecurrenceSpeedup float64
	ExactMax          int
	ExactSpeedup      float64
}

// Motivation quantifies §4's observation: "identification based on
// recurrence of clusters would hardly find candidates of more than 3–4
// operations".
func Motivation(benchmarks []string, nin, nout, ninstr int, cutBudget int64) ([]MotivationRow, error) {
	model := latency.Default()
	var rows []MotivationRow
	for _, bname := range benchmarks {
		k := workload.ByName(bname)
		if k == nil {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", bname)
		}
		m, err := k.Prepare()
		if err != nil {
			return nil, err
		}
		base := sim.FromProfile(m, model).Cycles
		cfg := core.Config{Nin: nin, Nout: nout, Model: model, MaxCuts: cutBudget}
		rec := runSelection(context.Background(), MethodRecurrence, m, ninstr, cfg)
		exact := runSelection(context.Background(), MethodIterative, m, ninstr, cfg)
		row := MotivationRow{Benchmark: bname, Nin: nin, Nout: nout,
			RecurrenceSpeedup: estSpeedup(base, rec.TotalMerit),
			ExactSpeedup:      estSpeedup(base, exact.TotalMerit)}
		for _, s := range rec.Instructions {
			if s.Est.Size > row.RecurrenceMax {
				row.RecurrenceMax = s.Est.Size
			}
		}
		for _, s := range exact.Instructions {
			if s.Est.Size > row.ExactMax {
				row.ExactMax = s.Est.Size
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// MotivationTable renders the study.
func MotivationTable(rows []MotivationRow) string {
	t := &report.Table{
		Title:  "§4 motivation — recurrence-based clustering vs. the exact search",
		Header: []string{"benchmark", "Nin", "Nout", "recurrence max ops", "recurrence speedup", "exact max ops", "exact speedup"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Nin, r.Nout, r.RecurrenceMax,
			fmt.Sprintf("%.3f", r.RecurrenceSpeedup), r.ExactMax, fmt.Sprintf("%.3f", r.ExactSpeedup))
	}
	return t.String()
}

// Fig5Tree renders the full annotated search tree of the Fig. 4 example
// (Fig. 5's structure with Fig. 7's pass/fail annotations).
func Fig5Tree() (string, error) {
	g, err := Fig4ExampleGraph()
	if err != nil {
		return "", err
	}
	res, err := core.TraceSearchTree(g, core.Config{Nin: 100, Nout: 1})
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// ---------------------------------------------------------------------------
// Preprocessing ablation: if-conversion's contribution.

// IfConvRow contrasts achievable speedup with and without if-conversion.
type IfConvRow struct {
	Benchmark          string
	Nin, Nout          int
	WithIfConv         float64
	WithoutIfConv      float64
	HotBlockOpsWith    int
	HotBlockOpsWithout int
}

// IfConvAblation quantifies why the paper if-converts before identifying
// (§8): without SEL-merged blocks, the conditional update chains split
// into small basic blocks and the identifiable cuts shrink drastically.
func IfConvAblation(benchmarks []string, nin, nout, ninstr int, cutBudget int64) ([]IfConvRow, error) {
	model := latency.Default()
	var rows []IfConvRow
	for _, bname := range benchmarks {
		k := workload.ByName(bname)
		if k == nil {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", bname)
		}
		row := IfConvRow{Benchmark: bname, Nin: nin, Nout: nout}
		var base int64 // the if-converted program's cycles, set first
		for _, noIfConv := range []bool{false, true} {
			m, err := minic.Compile(k.Source, minic.Options{UnrollLimit: k.Unroll})
			if err != nil {
				return nil, err
			}
			if err := passes.Run(m, passes.Options{NoIfConvert: noIfConv}); err != nil {
				return nil, err
			}
			env, err := k.NewEnv(m)
			if err != nil {
				return nil, err
			}
			env.Profile = true
			if _, _, err := env.Call(k.Entry, k.Args...); err != nil {
				return nil, err
			}
			if !noIfConv {
				base = sim.FromProfile(m, model).Cycles
			}
			cfg := core.Config{Nin: nin, Nout: nout, Model: model, MaxCuts: cutBudget}
			sel := core.SelectIterative(m, ninstr, cfg)
			sp := estSpeedup(base, sel.TotalMerit)
			_, _, g := hotBlock(m)
			ops := 0
			if g != nil {
				ops = g.NumOps()
			}
			if noIfConv {
				row.WithoutIfConv = sp
				row.HotBlockOpsWithout = ops
			} else {
				row.WithIfConv = sp
				row.HotBlockOpsWith = ops
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// IfConvTable renders the ablation.
func IfConvTable(rows []IfConvRow) string {
	t := &report.Table{
		Title:  "Preprocessing ablation — speedup with and without if-conversion (§8's preprocessing)",
		Header: []string{"benchmark", "Nin", "Nout", "with if-conv", "hot block ops", "without", "hot block ops"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Nin, r.Nout,
			fmt.Sprintf("%.3f", r.WithIfConv), r.HotBlockOpsWith,
			fmt.Sprintf("%.3f", r.WithoutIfConv), r.HotBlockOpsWithout)
	}
	return t.String()
}

// DSETable renders a sweep report (the deterministic Pareto artifact)
// for terminal output: per (benchmark, target), the baseline, the cell
// grid, and the Pareto frontier.
func DSETable(rep *dse.Report, stats *dse.Stats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DSE sweep (%s mode) — constraints %v, ninstr %v, budget %d\n",
		rep.Mode, rep.Constraints, rep.Ninstr, rep.Budget)
	if stats != nil {
		fmt.Fprintf(&sb, "%.2fs wall, %d selections, %d ident calls\n",
			stats.Elapsed.Seconds(), stats.Selections, stats.IdentCalls)
	}
	for _, b := range rep.Benchmarks {
		for _, t := range b.Targets {
			fmt.Fprintf(&sb, "\n%s on %s — baseline %d cycles\n", b.Benchmark, t.Target, t.BaselineCycles)
			fmt.Fprintf(&sb, "  %5s %6s %9s %8s %8s %6s %14s\n",
				"ports", "ninstr", "merit", "speedup", "area", "instrs", "status")
			for _, c := range t.Cells {
				mark := ""
				if c.Clamped {
					mark = "†"
				}
				fmt.Fprintf(&sb, "  %2d/%-2d %6d %9d %7.3f%s %8.2f %6d %14s\n",
					c.Nin, c.Nout, c.Ninstr, c.Merit, c.Speedup, mark, c.Area, len(c.Instructions), c.Status)
			}
			fmt.Fprintf(&sb, "  Pareto frontier (area ↑ as speedup ↑):\n")
			for _, p := range t.Pareto {
				mark := ""
				if p.Clamped {
					mark = "†"
				}
				fmt.Fprintf(&sb, "    area %8.2f  speedup %7.3f%s  ninstr %2d at %d/%d ports\n",
					p.Area, p.Speedup, mark, p.Ninstr, p.Nin, p.Nout)
			}
		}
	}
	return sb.String()
}
