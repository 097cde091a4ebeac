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
//	isebench -fig 11 -workers 8 -prune
//	                          # Fig. 11 with the engine optimizations on
//	                          # (same numbers, less wall clock)
//	isebench -budget 10000000 # spend more search effort
//	isebench -fig dse -dsejson PARETO.json
//	                          # design-space-exploration sweep over the
//	                          # (constraints × ninstr × benchmark ×
//	                          # target) grid; the JSON is deterministic
//	                          # (byte-identical across worker counts)
//
// An unknown -fig name prints the valid names and exits with code 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
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
	workers int
	prune   bool

	// DSE sweep axes.
	targets   []string
	sweepMode string
	dseJSON   string
}

// figures lists the -fig names run understands, in the order it runs
// them; "all" runs every one.
var figures = []string{"dse", "3", "5", "7", "8", "11", "runtime", "area", "tradeoff", "vliw", "ifconv", "ablation"}

// checkFig rejects a -fig value that is neither "all" nor a figure
// name; the error lists the valid names.
func checkFig(fig string) error {
	if fig == "all" || slices.Contains(figures, fig) {
		return nil
	}
	return fmt.Errorf("unknown -fig %q (want one of %s, all)", fig, strings.Join(figures, ", "))
}

func main() {
	want, o, err := parseArgs(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		os.Exit(2) // parseArgs has reported it
	}
	if err := run(os.Stdout, want, o); err != nil {
		fmt.Fprintln(os.Stderr, "isebench:", err)
		os.Exit(1)
	}
}

// parseArgs parses the command line into the figure filter and the
// options run takes, reporting a bad flag or figure name on stderr.
func parseArgs(args []string) (want func(string) bool, o cliOpts, err error) {
	fs := flag.NewFlagSet("isebench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "which figure to regenerate: "+strings.Join(figures, ", ")+", all")
	fs.Int64Var(&o.budget, "budget", experiments.DefaultBudget, "cut budget per identification call")
	fs.BoolVar(&o.measure, "measure", false, "Fig. 11: additionally patch and measure on the cycle simulator")
	fs.BoolVar(&o.optimal, "optimal", false, "Fig. 11: include the Optimal selection (slow on large blocks)")
	benches := fs.String("benchmarks", "adpcmdecode,adpcmencode,gsmlpc", "comma-separated benchmark list for Fig. 11 and the DSE sweep (sweep default: adpcmdecode,adpcmencode)")
	fs.DurationVar(&o.deadline, "deadline", 0, "Fig. 11: wall-clock budget per selection call (e.g. 2s; 0 = none); tripped cells are marked * as lower bounds")
	fs.IntVar(&o.workers, "workers", 0, "Fig. 11: per-search worker count (0 = serial); DSE sweep: constraint groups searched at once (0 = one per CPU)")
	fs.BoolVar(&o.prune, "prune", false, "Fig. 11: enable the sound merit-bound and input-count prunings")
	targets := fs.String("targets", "paper", "comma-separated hardware-target profiles for the DSE sweep (among "+strings.Join(latency.TargetNames(), ",")+")")
	fs.StringVar(&o.sweepMode, "sweepmode", "warm", "DSE sweep mode: warm (one selection per constraint group, groups searched concurrently) or cold (one serial selection per cell, the reference)")
	fs.StringVar(&o.dseJSON, "dsejson", "", "with -fig dse (or all): write the deterministic sweep/Pareto report to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return nil, o, err
	}
	if err := checkFig(*fig); err != nil {
		fmt.Fprintln(fs.Output(), "isebench:", err)
		return nil, o, err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "benchmarks" {
			o.benchSet = true
		}
	})
	o.benches = splitList(*benches)
	o.targets = splitList(*targets)
	return func(name string) bool { return *fig == "all" || *fig == name }, o, nil
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

func run(w io.Writer, want func(string) bool, o cliOpts) error {
	section := func(s string) { fmt.Fprintf(w, "\n%s\n\n", s) }

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
			fmt.Fprintf(w, "wrote %s\n", o.dseJSON)
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
		fmt.Fprintf(w, "%d/%d blocks within the N^4 band (paper: all practical cases polynomial)\n", within, total)
	}
	if want("11") {
		opt := experiments.DefaultCompareOptions()
		opt.Benchmarks = o.benches
		opt.Budget = o.budget
		opt.Measure = o.measure
		opt.Deadline = o.deadline
		opt.Workers = o.workers
		opt.Prune = o.prune
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
	fmt.Fprintln(w, strings.Repeat("-", 72))
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
	return opt
}
