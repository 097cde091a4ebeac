package dse

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

// testOptions is a small grid that still exercises every part of the
// sweep: two constraint points (concurrent tasks of one benchmark and
// target), three budgets (prefix derivation), two targets.
func testOptions() Options {
	opt := DefaultOptions()
	opt.Benchmarks = []string{"adpcmdecode"}
	opt.Constraints = [][2]int{{4, 2}, {2, 1}}
	opt.Ninstr = []int{3, 1, 2}
	opt.Targets = []string{"paper", "pipelined"}
	opt.Budget = 500_000
	return opt
}

// TestSweepDeterminism asserts the acceptance-critical property: the
// warm report is byte-identical for every worker count and shard order,
// and so is every telemetry count but Elapsed. The default grid runs two
// benchmarks on one target, so its tasks share constraint points and
// models — the case the test grid, whose benchmark-target pairs differ
// by model, cannot show.
func TestSweepDeterminism(t *testing.T) {
	inputs := []struct {
		name string
		opt  Options
		long bool // skipped under -short
	}{
		{name: "test-grid", opt: testOptions()},
		{name: "default-grid", opt: DefaultOptions(), long: true},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			if in.long && testing.Short() {
				t.Skip("sweeps the default grid six times")
			}
			var ref []byte
			var refStats Stats
			for _, workers := range []int{1, 2, 8} {
				for _, seed := range []int64{0, 7} {
					opt := in.opt
					opt.Workers = workers
					opt.ShardSeed = seed
					rep, stats, err := Sweep(context.Background(), opt)
					if err != nil {
						t.Fatalf("sweep(workers=%d seed=%d): %v", workers, seed, err)
					}
					b, err := rep.Bytes()
					if err != nil {
						t.Fatal(err)
					}
					stats.Elapsed = 0
					if ref == nil {
						ref, refStats = b, *stats
						continue
					}
					if !bytes.Equal(ref, b) {
						t.Fatalf("report diverged at workers=%d seed=%d:\n%s\nvs reference:\n%s", workers, seed, b, ref)
					}
					if *stats != refStats {
						t.Errorf("telemetry diverged at workers=%d seed=%d: %+v, reference %+v", workers, seed, *stats, refStats)
					}
				}
			}
		})
	}
}

// TestSweepWarmMatchesCold asserts that prefix sharing and block-level
// parallelism are result-preserving: every warm cell selects
// bit-identical instructions to a dedicated cold serial run. The small test grid's
// searches all complete; the default grid also has budget-stopped
// cells, where the warm and cold incumbents must agree as well.
func TestSweepWarmMatchesCold(t *testing.T) {
	inputs := []struct {
		name       string
		opt        Options
		exhaustive bool // every cell must be exhaustive
		long       bool // skipped under -short
	}{
		{name: "test-grid", opt: testOptions(), exhaustive: true},
		{name: "default-grid", opt: DefaultOptions(), long: true},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			if in.long && testing.Short() {
				t.Skip("sweeps the default grid twice")
			}
			warm, _, err := Sweep(context.Background(), in.opt)
			if err != nil {
				t.Fatal(err)
			}
			coldOpt := in.opt
			coldOpt.Cold = true
			cold, _, err := Sweep(context.Background(), coldOpt)
			if err != nil {
				t.Fatal(err)
			}
			if len(warm.Benchmarks) != len(cold.Benchmarks) {
				t.Fatalf("benchmark count: warm %d cold %d", len(warm.Benchmarks), len(cold.Benchmarks))
			}
			for bi := range warm.Benchmarks {
				for ti := range warm.Benchmarks[bi].Targets {
					w, c := warm.Benchmarks[bi].Targets[ti], cold.Benchmarks[bi].Targets[ti]
					if w.BaselineCycles != c.BaselineCycles {
						t.Errorf("%s/%s: baseline %d vs %d", warm.Benchmarks[bi].Benchmark, w.Target, w.BaselineCycles, c.BaselineCycles)
					}
					if len(w.Cells) != len(c.Cells) {
						t.Fatalf("%s/%s: cell count %d vs %d", warm.Benchmarks[bi].Benchmark, w.Target, len(w.Cells), len(c.Cells))
					}
					for i := range w.Cells {
						wc, cc := w.Cells[i], c.Cells[i]
						if in.exhaustive && (wc.Status != "exhaustive" || cc.Status != "exhaustive") {
							t.Errorf("cell (%d,%d,%d): non-exhaustive status warm=%q cold=%q — identity claim needs completed searches",
								wc.Nin, wc.Nout, wc.Ninstr, wc.Status, cc.Status)
						}
						if wc.Merit != cc.Merit || !reflect.DeepEqual(wc.Instructions, cc.Instructions) {
							t.Errorf("%s/%s cell (%d,%d,%d): warm selection diverged from cold reference\nwarm: %+v\ncold: %+v",
								warm.Benchmarks[bi].Benchmark, w.Target, wc.Nin, wc.Nout, wc.Ninstr, wc, cc)
						}
					}
				}
			}
		})
	}
}

// TestSweepSharingPays sanity-checks that Ninstr prefix sharing
// engages: one selection per constraint group, not per cell.
func TestSweepSharingPays(t *testing.T) {
	opt := testOptions()
	_, stats, err := Sweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Selections == 0 || stats.IdentCalls == 0 {
		t.Errorf("implausible telemetry: %+v", stats)
	}
	// One selection per (constraint × target) group, not per cell:
	// 2 constraints × 2 targets = 4, versus 12 cells.
	if want := 4; stats.Selections != want {
		t.Errorf("Selections = %d, want %d (prefix sharing should collapse the ninstr axis)", stats.Selections, want)
	}
}

// TestSweepRejectsRepeats: a grid value listed twice on any axis is an
// error naming it, not a sweep that runs and reports its cells twice.
func TestSweepRejectsRepeats(t *testing.T) {
	cases := []struct {
		axis string
		edit func(*Options)
		want string
	}{
		{"benchmarks", func(o *Options) { o.Benchmarks = []string{"fir", "sad", "fir"} }, `benchmark fir listed twice`},
		{"targets", func(o *Options) { o.Targets = []string{"paper", "paper"} }, `target paper listed twice`},
		{"constraints", func(o *Options) { o.Constraints = [][2]int{{2, 1}, {4, 2}, {2, 1}} }, `constraint 2/1 listed twice`},
		{"ninstr", func(o *Options) { o.Ninstr = []int{1, 2, 1} }, `ninstr 1 listed twice`},
	}
	for _, c := range cases {
		t.Run(c.axis, func(t *testing.T) {
			opt := testOptions()
			c.edit(&opt)
			_, _, err := Sweep(context.Background(), opt)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Sweep with a repeated %s: err = %v, want one containing %q", c.axis, err, c.want)
			}
		})
	}
}

func TestEstSpeedup(t *testing.T) {
	cases := []struct {
		base, merit int64
		want        float64
		clamped     bool
	}{
		{1000, 0, 1, false},
		{1000, -5, 1, false},
		{0, 50, 1, false},
		{1000, 500, 2, false},
		{1000, 1000, 1000, true},
		{1000, 2000, 1000, true},
	}
	for _, c := range cases {
		got, clamped := EstSpeedup(c.base, c.merit)
		if got != c.want || clamped != c.clamped {
			t.Errorf("EstSpeedup(%d, %d) = (%v, %v), want (%v, %v)", c.base, c.merit, got, clamped, c.want, c.clamped)
		}
	}
}

func TestParetoFrontier(t *testing.T) {
	cells := []Cell{
		{Nin: 2, Nout: 1, Ninstr: 1, Speedup: 1.2, Area: 1.0, Merit: 100}, // dominated by the (4,2,1) cell
		{Nin: 2, Nout: 1, Ninstr: 2, Speedup: 1.8, Area: 2.0, Merit: 300}, // frontier: best speedup, paid in area+instrs
		{Nin: 4, Nout: 2, Ninstr: 1, Speedup: 1.5, Area: 1.0, Merit: 200}, // frontier
		{Nin: 4, Nout: 2, Ninstr: 2, Speedup: 1.5, Area: 3.0, Merit: 200}, // dominated (same speedup, more area+instrs)
		{Nin: 8, Nout: 4, Ninstr: 1, Speedup: 1.5, Area: 1.0, Merit: 200}, // tie witness of the (4,2,1) cell, kept
	}
	front := paretoFrontier(cells)
	want := []ParetoPoint{
		{Nin: 4, Nout: 2, Ninstr: 1, Speedup: 1.5, Area: 1.0, Merit: 200},
		{Nin: 8, Nout: 4, Ninstr: 1, Speedup: 1.5, Area: 1.0, Merit: 200},
		{Nin: 2, Nout: 1, Ninstr: 2, Speedup: 1.8, Area: 2.0, Merit: 300},
	}
	if !reflect.DeepEqual(front, want) {
		t.Errorf("frontier = %+v\nwant %+v", front, want)
	}
}

func TestConstraintOrder(t *testing.T) {
	got := constraintOrder([][2]int{{8, 4}, {2, 1}, {4, 3}, {4, 2}})
	want := [][2]int{{2, 1}, {4, 2}, {4, 3}, {8, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}
