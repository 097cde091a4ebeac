package experiments

import (
	"strings"
	"testing"
)

func TestFig7MatchesPaper(t *testing.T) {
	r := Fig7()
	if r.Considered != 11 || r.Passed != 5 || r.Failed != 6 || r.Eliminated != 4 {
		t.Errorf("Fig. 7 trace = %+v, paper says 11/5/6/4", r)
	}
	out := Fig7Table(r)
	if !strings.Contains(out, "cuts considered") {
		t.Error("table malformed")
	}
}

func TestFig3Shapes(t *testing.T) {
	rows, err := Fig3(500_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every constraint must find something on the hot block.
	for _, r := range rows {
		if r.Size == 0 {
			t.Fatalf("no cut at (%d,%d)", r.Nin, r.Nout)
		}
		if r.In > r.Nin || r.Out > r.Nout {
			t.Errorf("(%d,%d): cut violates ports (in=%d out=%d)", r.Nin, r.Nout, r.In, r.Out)
		}
	}
	// Loosening constraints must not reduce the achievable gain, and the
	// M1→M2 growth must appear between (2,1) and (3,1).
	if !(rows[0].Saved <= rows[1].Saved && rows[1].Saved <= rows[2].Saved && rows[2].Saved <= rows[3].Saved) {
		t.Errorf("gain not monotone across constraints: %+v", rows)
	}
	if rows[1].Size <= rows[0].Size {
		t.Errorf("(3,1) cut (%d nodes) should extend the (2,1) cut (%d nodes)", rows[1].Size, rows[0].Size)
	}
	out := Fig3Table(rows)
	if !strings.Contains(out, "operations") {
		t.Error("table malformed")
	}
}

func TestFig8PopulationAndBand(t *testing.T) {
	points, err := Fig8(200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 15 {
		t.Fatalf("only %d blocks in the population", len(points))
	}
	var maxN int
	for _, p := range points {
		if p.N > maxN {
			maxN = p.N
		}
		if p.Cuts < 1 && p.N >= 2 {
			t.Errorf("%s/%s: zero cuts considered on %d nodes", p.Fn, p.Block, p.N)
		}
	}
	if maxN < 40 {
		t.Errorf("largest block only %d nodes; population too small for Fig. 8", maxN)
	}
	within, total := Fig8WithinPolynomialBand(points)
	if within < total*9/10 {
		t.Errorf("only %d/%d points within the N^4 band", within, total)
	}
	out := Fig8Series(points)
	if !strings.Contains(out, "N^4") {
		t.Error("series output malformed")
	}
}

func TestCompareSmall(t *testing.T) {
	opt := CompareOptions{
		Benchmarks:  []string{"adpcmdecode"},
		Constraints: [][2]int{{2, 1}, {4, 2}},
		Ninstr:      []int{1, 4},
		Budget:      DefaultBudget,
		Methods:     []Method{MethodIterative, MethodClubbing, MethodMaxMISO},
		Measure:     true,
	}
	rows, err := Compare(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		it := r.Cells[MethodIterative]
		// The exact search dominates the baselines whenever it completes;
		// a budget-aborted run is only a lower bound.
		if !it.Aborted {
			if it.Speedup < r.Cells[MethodClubbing].Speedup-1e-9 {
				t.Errorf("%s (%d,%d,%d): iterative %.3f < clubbing %.3f",
					r.Benchmark, r.Nin, r.Nout, r.Ninstr, it.Speedup, r.Cells[MethodClubbing].Speedup)
			}
			if it.Speedup < r.Cells[MethodMaxMISO].Speedup-1e-9 {
				t.Errorf("%s (%d,%d,%d): iterative %.3f < maxmiso %.3f",
					r.Benchmark, r.Nin, r.Nout, r.Ninstr, it.Speedup, r.Cells[MethodMaxMISO].Speedup)
			}
		}
		if it.Speedup <= 1.0 {
			t.Errorf("iterative speedup %.3f not > 1", it.Speedup)
		}
		// Measured must track the estimate closely (same model; only
		// skipped cuts may open a small gap).
		if it.Measured > 0 {
			if diff := it.Speedup - it.Measured; diff < -1e-9 || diff > 0.25 {
				t.Errorf("estimated %.3f vs measured %.3f diverge", it.Speedup, it.Measured)
			}
		}
	}
	out := ComparisonTable(rows, opt.Methods, true)
	if !strings.Contains(out, "Iterative(sim)") {
		t.Error("comparison table malformed")
	}
}

func TestCompareGapGrowsWithPorts(t *testing.T) {
	// The paper's key claim: as port constraints loosen, the exact
	// algorithm pulls further ahead of Clubbing (multi-output and
	// disconnected cuts become available that the greedy clustering and
	// the single-output MISOs cannot express).
	opt := CompareOptions{
		Benchmarks:  []string{"adpcmdecode"},
		Constraints: [][2]int{{2, 1}, {4, 2}},
		Ninstr:      []int{16},
		Budget:      3_000_000,
		Methods:     []Method{MethodIterative, MethodClubbing, MethodMaxMISO},
	}
	rows, err := Compare(opt)
	if err != nil {
		t.Fatal(err)
	}
	gapTight := rows[0].Cells[MethodIterative].Speedup - rows[0].Cells[MethodClubbing].Speedup
	gapLoose := rows[1].Cells[MethodIterative].Speedup - rows[1].Cells[MethodClubbing].Speedup
	if gapLoose <= gapTight {
		t.Errorf("gap vs clubbing did not grow with ports: tight %.3f, loose %.3f", gapTight, gapLoose)
	}
	// And MaxMISO must lose at the tight constraint already — it cannot
	// see M1 inside the wider MISO (§8's adpcmdecode discussion).
	if rows[0].Cells[MethodMaxMISO].Speedup >= rows[0].Cells[MethodIterative].Speedup {
		t.Errorf("MaxMISO %.3f should trail Iterative %.3f at (2,1)",
			rows[0].Cells[MethodMaxMISO].Speedup, rows[0].Cells[MethodIterative].Speedup)
	}
}

func TestRuntimeAndArea(t *testing.T) {
	rows, err := Runtime([]string{"fir"}, [][2]int{{4, 2}}, 4, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Duration <= 0 {
		t.Errorf("runtime rows: %+v", rows)
	}
	if !strings.Contains(RuntimeTable(rows), "fir") {
		t.Error("runtime table malformed")
	}
	arows, err := Area([]string{"adpcmdecode", "adpcmencode"}, 4, 2, 16, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range arows {
		if r.TotalArea <= 0 {
			t.Errorf("%s: zero area", r.Benchmark)
		}
		// §8: the largest chosen datapaths stay within "a couple of
		// multiply-accumulators".
		if r.MaxArea > 2.5 {
			t.Errorf("%s: largest AFU %.2f MACs is far beyond the paper's claim", r.Benchmark, r.MaxArea)
		}
	}
	if !strings.Contains(AreaTable(arows), "largest AFU") {
		t.Error("area table malformed")
	}
}

func TestAblation(t *testing.T) {
	rows, err := Ablation([]string{"adpcmencode"}, [][2]int{{4, 2}}, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.InputPrune > r.Baseline || r.MeritPrune > r.Baseline || r.BothPrune > min64(r.InputPrune, r.MeritPrune) {
		t.Errorf("pruning increased work: %+v", r)
	}
	if !strings.Contains(AblationTable(rows), "+both") {
		t.Error("ablation table malformed")
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestFig5TreeRenders(t *testing.T) {
	tree := Fig5Tree()
	for _, want := range []string{"0000 (root)", "1000 [pass]", "considered=11 passed=5 failed=6 not-considered=4"} {
		if !strings.Contains(tree, want) {
			t.Errorf("fig5 tree missing %q:\n%s", want, tree)
		}
	}
}

func TestAreaTradeoffMonotone(t *testing.T) {
	rows, err := AreaTradeoff("fir", 4, 2, 6, []float64{0.1, 0.5, 2.0}, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup+1e-9 < rows[i-1].Speedup {
			t.Errorf("speedup not monotone: %+v", rows)
		}
	}
	for _, r := range rows {
		if r.UsedArea > r.Budget+0.05 {
			t.Errorf("area %.3f over budget %.3f", r.UsedArea, r.Budget)
		}
	}
	if !strings.Contains(AreaTradeoffTable(rows), "area budget") {
		t.Error("table malformed")
	}
	if _, err := AreaTradeoff("nope", 4, 2, 4, []float64{1}, 1000); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestVLIWStudyShrinks(t *testing.T) {
	rows, err := VLIWStudy("fir", 4, 2, 6, []int{1, 4}, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Speedup > rows[0].Speedup+1e-9 {
		t.Errorf("ISE gain grew with width: %+v", rows)
	}
	if !strings.Contains(VLIWTable(rows), "issue width") {
		t.Error("table malformed")
	}
	if _, err := VLIWStudy("nope", 4, 2, 4, []int{1}, 1000); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestMotivationStudy(t *testing.T) {
	rows, err := Motivation([]string{"fir"}, 4, 2, 6, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.ExactSpeedup < r.RecurrenceSpeedup-1e-9 {
		t.Errorf("exact %.3f below recurrence %.3f", r.ExactSpeedup, r.RecurrenceSpeedup)
	}
	if !strings.Contains(MotivationTable(rows), "recurrence max ops") {
		t.Error("table malformed")
	}
	if _, err := Motivation([]string{"nope"}, 4, 2, 4, 1000); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare(CompareOptions{Benchmarks: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Runtime([]string{"nope"}, [][2]int{{2, 1}}, 1, 1000); err == nil {
		t.Error("unknown benchmark accepted in Runtime")
	}
	if _, err := Area([]string{"nope"}, 2, 1, 1, 1000); err == nil {
		t.Error("unknown benchmark accepted in Area")
	}
	if _, err := Ablation([]string{"nope"}, [][2]int{{2, 1}}, 1000); err == nil {
		t.Error("unknown benchmark accepted in Ablation")
	}
}

func TestIfConvAblation(t *testing.T) {
	rows, err := IfConvAblation([]string{"fir"}, 4, 2, 4, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.WithIfConv < r.WithoutIfConv {
		t.Errorf("if-conversion hurt on fir: %.3f vs %.3f", r.WithIfConv, r.WithoutIfConv)
	}
	if !strings.Contains(IfConvTable(rows), "if-conv") {
		t.Error("table malformed")
	}
	if _, err := IfConvAblation([]string{"nope"}, 4, 2, 4, 1000); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
