// Command isebench regenerates the paper's evaluation: the Fig. 3
// motivational analysis, the Fig. 7 search trace, the Fig. 8 scaling
// study, the Fig. 11 algorithm comparison, and the §8 run-time and area
// summaries, plus the pruning ablation (an extension). Output is plain
// text, one section per figure.
//
// Usage:
//
//	isebench                  # everything, default budgets
//	isebench -fig 11 -measure # only Fig. 11, with simulator validation
//	isebench -fig 11 -workers 8 -parallel -dedup -warmstart -prune
//	                          # Fig. 11 with the engine optimizations on
//	                          # (same numbers, less wall clock)
//	isebench -budget 10000000 # spend more search effort
//	isebench -fig dse -dsejson PARETO.json
//	                          # design-space-exploration sweep over the
//	                          # (constraints × ninstr × benchmark ×
//	                          # target) grid; the JSON is deterministic
//	                          # (byte-identical across worker counts)
//	isebench -fig dsebench -dsebenchjson BENCH_PR9.json
//	                          # cold serial vs warm-started parallel
//	                          # sweep at identical per-cell selections
//	isebench -fig bench -benchjson BENCH_PR2.json
//	                          # constraint-kernel microbenchmarks, written
//	                          # as machine-readable JSON for run-to-run
//	                          # comparison
//	isebench -fig parbench -parjson BENCH_PR3.json
//	                          # serial vs work-stealing parallel B&B on the
//	                          # largest benchmark block
//	isebench -fig obsbench -obsjson BENCH_PR5.json
//	                          # telemetry overhead: probe off (A/A) vs
//	                          # metrics-only vs full flight-recorder tracing
//	isebench -fig dedupbench -dedupjson BENCH_PR7.json
//	                          # cross-block dedup on a repeated-blocks
//	                          # corpus: identify-stage wall time and search
//	                          # work with the memo off (reference) vs on
//	isebench -fig klbench -kljson BENCH_PR8.json
//	                          # the ISEGEN-style iterative racer vs the
//	                          # racer-less ladder on exploding blocks at
//	                          # 2/1, 4/2 and 8/4 ports: merit, gap to the
//	                          # proven optimum, and time-to-best
//	isebench -fig analyzebench -analyzejson BENCH_PR10.json
//	                          # causal-span A/A overhead (span IDs are
//	                          # always on; the pair bounds what they can
//	                          # cost) plus analyzer cost and determinism
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"isex/internal/dse"
	"isex/internal/experiments"
	"isex/internal/latency"
)

// cliOpts carries every flag value; one struct instead of a parameter
// per figure keeps run() extensible.
type cliOpts struct {
	budget   int64
	measure  bool
	optimal  bool
	benches  []string
	benchSet bool // -benchmarks given explicitly
	deadline time.Duration

	// Fig. 11 engine knobs (result-preserving; wall clock only).
	workers   int
	parallel  bool
	dedup     bool
	isegen    bool
	warmstart bool
	prune     bool

	// DSE sweep axes.
	targets     []string
	sweepMode   string
	benchJSON   string
	parJSON     string
	obsJSON     string
	dedupJSON   string
	klJSON      string
	analyzeJSON string
	dseJSON     string
	dseBenJSON  string
}

func main() {
	var o cliOpts
	fig := flag.String("fig", "all", "which figure to regenerate: 3, 5, 7, 8, 11, runtime, area, tradeoff, vliw, ifconv, ablation, bench, parbench, obsbench, dedupbench, klbench, analyzebench, dse, dsebench, all")
	flag.Int64Var(&o.budget, "budget", experiments.DefaultBudget, "cut budget per identification call")
	flag.BoolVar(&o.measure, "measure", false, "Fig. 11: additionally patch and measure on the cycle simulator")
	flag.BoolVar(&o.optimal, "optimal", false, "Fig. 11: include the Optimal selection (slow on large blocks)")
	benches := flag.String("benchmarks", "adpcmdecode,adpcmencode,gsmlpc", "comma-separated benchmark list for Fig. 11 and the DSE sweep (sweep default: adpcmdecode,adpcmencode)")
	flag.DurationVar(&o.deadline, "deadline", 0, "Fig. 11: wall-clock budget per selection call (e.g. 2s; 0 = none); tripped cells are marked * as lower bounds")
	flag.IntVar(&o.workers, "workers", 0, "Fig. 11: per-search worker count (0 = serial); DSE sweep: admission-pool size")
	flag.BoolVar(&o.parallel, "parallel", false, "Fig. 11: search a selection's blocks concurrently")
	flag.BoolVar(&o.dedup, "dedup", false, "Fig. 11: cross-block structural dedup")
	flag.BoolVar(&o.isegen, "isegen", false, "Fig. 11 / DSE: race the Kernighan-Lin toggle engine on exploding blocks (DSE: trades strict reproducibility for anytime quality)")
	flag.BoolVar(&o.warmstart, "warmstart", false, "Fig. 11: seed each search with a windowed heuristic incumbent")
	flag.BoolVar(&o.prune, "prune", false, "Fig. 11: enable the sound merit-bound and input-count prunings")
	targets := flag.String("targets", "paper", "comma-separated hardware-target profiles for the DSE sweep (among "+strings.Join(latency.TargetNames(), ",")+")")
	flag.StringVar(&o.sweepMode, "sweepmode", "warm", "DSE sweep mode: warm (shared seeds/dedup, parallel) or cold (dedicated serial reference)")
	flag.StringVar(&o.benchJSON, "benchjson", "", "with -fig bench (or all): write the constraint-kernel benchmark report to this file as JSON (e.g. BENCH_PR2.json)")
	flag.StringVar(&o.parJSON, "parjson", "", "with -fig parbench (or all): write the parallel B&B benchmark report to this file as JSON (e.g. BENCH_PR3.json)")
	flag.StringVar(&o.obsJSON, "obsjson", "", "with -fig obsbench (or all): write the telemetry overhead benchmark report to this file as JSON (e.g. BENCH_PR5.json)")
	flag.StringVar(&o.dedupJSON, "dedupjson", "", "with -fig dedupbench (or all): write the cross-block dedup benchmark report to this file as JSON (e.g. BENCH_PR7.json)")
	flag.StringVar(&o.klJSON, "kljson", "", "with -fig klbench (or all): write the iterative racer benchmark report to this file as JSON (e.g. BENCH_PR8.json)")
	flag.StringVar(&o.analyzeJSON, "analyzejson", "", "with -fig analyzebench (or all): write the span-ID/analyzer benchmark report to this file as JSON (e.g. BENCH_PR10.json)")
	flag.StringVar(&o.dseJSON, "dsejson", "", "with -fig dse (or all): write the deterministic sweep/Pareto report to this file as JSON")
	flag.StringVar(&o.dseBenJSON, "dsebenchjson", "", "with -fig dsebench: write the cold-vs-warm sweep benchmark report to this file as JSON (e.g. BENCH_PR9.json)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "benchmarks" {
			o.benchSet = true
		}
	})
	o.benches = splitList(*benches)
	o.targets = splitList(*targets)
	want := func(name string) bool { return *fig == "all" || *fig == name }
	if err := run(want, o); err != nil {
		fmt.Fprintln(os.Stderr, "isebench:", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func run(want func(string) bool, o cliOpts) error {
	section := func(s string) { fmt.Println(); fmt.Println(s); fmt.Println() }

	if want("bench") || o.benchJSON != "" {
		rep, err := experiments.KernelBench()
		if err != nil {
			return err
		}
		section(experiments.KernelBenchTable(rep))
		if o.benchJSON != "" {
			if err := rep.WriteJSON(o.benchJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.benchJSON)
		}
	}

	if want("parbench") || o.parJSON != "" {
		rep, err := experiments.ParBench()
		if err != nil {
			return err
		}
		section(experiments.ParBenchTable(rep))
		if o.parJSON != "" {
			if err := rep.WriteJSON(o.parJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.parJSON)
		}
	}

	if want("obsbench") || o.obsJSON != "" {
		rep, err := experiments.ObsBench()
		if err != nil {
			return err
		}
		section(experiments.ObsBenchTable(rep))
		if o.obsJSON != "" {
			if err := rep.WriteJSON(o.obsJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.obsJSON)
		}
	}

	if want("dedupbench") || o.dedupJSON != "" {
		rep, err := experiments.DedupBench()
		if err != nil {
			return err
		}
		section(experiments.DedupBenchTable(rep))
		if o.dedupJSON != "" {
			if err := rep.WriteJSON(o.dedupJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.dedupJSON)
		}
	}

	if want("klbench") || o.klJSON != "" {
		rep, err := experiments.KLBench()
		if err != nil {
			return err
		}
		section(experiments.KLBenchTable(rep))
		if o.klJSON != "" {
			if err := rep.WriteJSON(o.klJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.klJSON)
		}
	}

	if want("analyzebench") || o.analyzeJSON != "" {
		rep, err := experiments.AnalyzeBench()
		if err != nil {
			return err
		}
		section(experiments.AnalyzeBenchTable(rep))
		if o.analyzeJSON != "" {
			if err := rep.WriteJSON(o.analyzeJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.analyzeJSON)
		}
	}

	if want("dse") || o.dseJSON != "" {
		opt := dseOptions(o)
		rep, stats, err := dse.Sweep(context.Background(), opt)
		if err != nil {
			return err
		}
		section(experiments.DSETable(rep, stats))
		if o.dseJSON != "" {
			data, err := rep.Bytes()
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.dseJSON, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.dseJSON)
		}
	}

	if want("dsebench") || o.dseBenJSON != "" {
		rep, err := experiments.DSEBench(dseOptions(o))
		if err != nil {
			return err
		}
		section(experiments.DSEBenchTable(rep))
		if o.dseBenJSON != "" {
			if err := rep.WriteJSON(o.dseBenJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.dseBenJSON)
		}
	}

	if want("3") {
		rows, err := experiments.Fig3(o.budget)
		if err != nil {
			return err
		}
		section(experiments.Fig3Table(rows))
	}
	if want("5") {
		tree, err := experiments.Fig5Tree()
		if err != nil {
			return err
		}
		section("Fig. 5/7 — the search tree on the Fig. 4 example (Nout=1)\n\n" + tree)
	}
	if want("7") {
		r, err := experiments.Fig7()
		if err != nil {
			return err
		}
		section(experiments.Fig7Table(r))
	}
	if want("8") {
		points, err := experiments.Fig8(o.budget)
		if err != nil {
			return err
		}
		section(experiments.Fig8Series(points))
		within, total := experiments.Fig8WithinPolynomialBand(points)
		fmt.Printf("%d/%d blocks within the N^4 band (paper: all practical cases polynomial)\n", within, total)
	}
	if want("11") {
		opt := experiments.DefaultCompareOptions()
		opt.Benchmarks = o.benches
		opt.Budget = o.budget
		opt.Measure = o.measure
		opt.Deadline = o.deadline
		opt.Workers = o.workers
		opt.Parallel = o.parallel
		opt.Dedup = o.dedup
		opt.ISEGen = o.isegen
		opt.WarmStart = o.warmstart
		opt.PruneInputs = o.prune
		opt.PruneMerit = o.prune
		if !o.optimal {
			opt.Methods = []experiments.Method{
				experiments.MethodIterative, experiments.MethodClubbing, experiments.MethodMaxMISO,
			}
		}
		rows, err := experiments.Compare(opt)
		if err != nil {
			return err
		}
		section(experiments.ComparisonTable(rows, opt.Methods, o.measure))
	}
	if want("runtime") {
		rows, err := experiments.Runtime(
			[]string{"adpcmdecode", "adpcmencode", "gsmlpc"},
			[][2]int{{2, 1}, {4, 2}, {8, 4}}, 16, o.budget)
		if err != nil {
			return err
		}
		section(experiments.RuntimeTable(rows))
	}
	if want("area") {
		rows, err := experiments.Area(
			[]string{"adpcmdecode", "adpcmencode", "gsmlpc"}, 4, 2, 16, o.budget)
		if err != nil {
			return err
		}
		section(experiments.AreaTable(rows))
	}
	if want("tradeoff") {
		rows, err := experiments.AreaTradeoff("adpcmdecode", 4, 2, 8,
			[]float64{0.1, 0.25, 0.5, 1.0, 2.0, 4.0}, o.budget)
		if err != nil {
			return err
		}
		section(experiments.AreaTradeoffTable(rows))
	}
	if want("vliw") {
		rows, err := experiments.VLIWStudy("adpcmdecode", 4, 2, 8, []int{1, 2, 4, 8}, o.budget)
		if err != nil {
			return err
		}
		section(experiments.VLIWTable(rows))
	}
	if want("ifconv") {
		rows, err := experiments.IfConvAblation(
			[]string{"adpcmdecode", "adpcmencode"}, 4, 2, 8, o.budget)
		if err != nil {
			return err
		}
		section(experiments.IfConvTable(rows))
	}
	if want("ablation") {
		rows, err := experiments.Ablation(
			[]string{"adpcmdecode", "adpcmencode"},
			[][2]int{{2, 1}, {4, 2}}, o.budget)
		if err != nil {
			return err
		}
		section(experiments.AblationTable(rows))
	}
	fmt.Println(strings.Repeat("-", 72))
	return nil
}

// dseOptions maps the CLI flags onto a sweep configuration, starting
// from the sweep defaults: the Fig. 11 benchmark list only overrides
// the sweep's own default when given explicitly (the sweep defaults to
// the ADPCM pair; gsmlpc is expensive at loose constraints).
func dseOptions(o cliOpts) dse.Options {
	opt := dse.DefaultOptions()
	if o.benchSet {
		opt.Benchmarks = o.benches
	}
	if len(o.targets) > 0 {
		opt.Targets = o.targets
	}
	opt.Budget = o.budget
	if o.workers > 0 {
		opt.Workers = o.workers
	}
	opt.Cold = o.sweepMode == "cold"
	opt.ISEGen = o.isegen
	return opt
}
