// Command isex is the tool-chain driver: it compiles a MiniC program (or
// loads a built-in benchmark kernel), profiles it, identifies
// instruction-set extensions under the given port constraints, and
// reports the chosen custom instructions. Optionally it patches the
// program, validates it on the cycle simulator, and emits Verilog for
// every AFU.
//
// Usage:
//
//	isex -kernel adpcmdecode -nin 4 -nout 2 -ninstr 8 -simulate
//	isex -src prog.mc -entry main -nin 2 -nout 1 -verilog out/
//
// Exit codes:
//
//	0  success
//	1  error (bad flags, compile/profile failure, I/O failure, ...)
//	2  -strict was set and the selection degraded below the exact
//	   search (any per-block status other than "exhaustive": budget,
//	   deadline, cancellation, or a recovered failure).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"isex/internal/baseline"
	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/latency"
	"isex/internal/minic"
	"isex/internal/passes"
	"isex/internal/report"
	"isex/internal/rtl"
	"isex/internal/sim"
	"isex/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "isex:", err)
		if errors.Is(err, errStrictDegraded) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// kernelNames lists the built-in kernels for the -kernel help.
func kernelNames() string {
	var names []string
	for _, k := range workload.All() {
		names = append(names, k.Name)
	}
	return strings.Join(names, ", ")
}

// errStrictDegraded is returned by run when -strict is set and the
// selection is not exact; main translates it into exit code 2 so CI can
// distinguish "degraded result" from a hard failure.
var errStrictDegraded = errors.New("selection degraded below the exact search (-strict)")

// singleRunFlags configure one selection on one program; a sweep runs a
// grid of selections on the built-in kernels and reads none of them.
var singleRunFlags = map[string]bool{
	"json": true, "strict": true, "method": true, "simulate": true,
	"nin": true, "nout": true, "ninstr": true, "verilog": true, "dot": true,
	"emit-ir": true, "ir": true, "src": true, "entry": true, "args": true, "unroll": true,
}

// sweepFlags configure a -sweep grid and nothing else.
var sweepFlags = map[string]bool{
	"targets": true, "constraints": true, "ninstrs": true, "sweep-mode": true, "sweep-json": true,
}

// checkModeFlags rejects a flag set on the command line that the chosen
// mode ignores: a single-run flag with -sweep, or a sweep flag without.
func checkModeFlags(fs *flag.FlagSet, sweep bool) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case sweep && singleRunFlags[f.Name]:
			err = fmt.Errorf("-%s cannot be combined with -sweep: a sweep takes its ports, budgets and kernels from -constraints, -ninstrs and -kernel, and reports its grid as a table or with -sweep-json", f.Name)
		case !sweep && sweepFlags[f.Name]:
			err = fmt.Errorf("-%s configures a -sweep grid and needs -sweep", f.Name)
		}
	})
	return err
}

// run is the isex command on the command-line arguments argv.
func run(argv []string) error {
	fs := flag.NewFlagSet("isex", flag.ExitOnError)
	var (
		srcPath   = fs.String("src", "", "MiniC source file to compile")
		kernel    = fs.String("kernel", "", "built-in benchmark kernel ("+kernelNames()+")")
		entry     = fs.String("entry", "main", "entry function for profiling (-src mode)")
		argList   = fs.String("args", "", "comma-separated integer arguments for the entry function")
		nin       = fs.Int("nin", 4, "register-file read ports available to a special instruction")
		nout      = fs.Int("nout", 2, "register-file write ports available to a special instruction")
		ninstr    = fs.Int("ninstr", 8, "maximum number of special instructions to select")
		method    = fs.String("method", "iterative", "selection algorithm: iterative, optimal, clubbing, maxmiso")
		budget    = fs.Int64("budget", 2_000_000, "cut budget per identification call (0 = unlimited)")
		workers   = fs.Int("workers", 0, "run each block's exact search on the parallel branch-and-bound engine with this many workers, splitting a search that outlasts a poll interval among them (0 = serial; results are bit-identical); with -sweep, the number of constraint groups searched at once, each searching its blocks serially (0 = one per CPU)")
		deadline  = fs.Duration("deadline", 0, "wall-clock budget for identification (e.g. 500ms; 0 = none); on expiry the best selection found so far is reported")
		strict    = fs.Bool("strict", false, "exit with code 2 when any block's search degraded below the exact algorithm (the report is still written); for CI gates that must not accept lower bounds")
		unroll    = fs.Int("unroll", 0, "fully unroll counted loops up to this trip count (-src mode)")
		simulate  = fs.Bool("simulate", false, "patch the selection in and measure the speedup on the cycle simulator")
		verilogTo = fs.String("verilog", "", "directory to write one Verilog file (+ testbench) per AFU")
		dotTo     = fs.String("dot", "", "write the hottest block's dataflow graph (best cut highlighted) to this file")
		showIR    = fs.Bool("ir", false, "dump the preprocessed IR")
		emitIR    = fs.String("emit-ir", "", "write the final module (custom instructions included, if patched) in textual IR form to this file")
		list      = fs.Bool("list", false, "list the built-in benchmark kernels and exit")

		sweep            = fs.Bool("sweep", false, "run a design-space-exploration sweep over the (constraints x ninstr x kernel x target) grid and exit; -kernel may list several kernels comma-separated (default adpcmdecode,adpcmencode)")
		sweepTargets     = fs.String("targets", "paper", "-sweep: comma-separated hardware-target profiles (paper, pipelined, fwdcost)")
		sweepConstraints = fs.String("constraints", "", "-sweep: comma-separated nin/nout grid points, e.g. 2/1,4/2,4/3,8/4 (default: those four)")
		sweepNinstr      = fs.String("ninstrs", "", "-sweep: comma-separated instruction budgets (default 1,2,4,8,16)")
		sweepMode        = fs.String("sweep-mode", "warm", "-sweep: warm (one selection per constraint group, Ninstr budgets as its prefixes, -workers groups searched at once) or cold (one serial selection per cell, one at a time; bit-identical cells)")
		sweepJSON        = fs.String("sweep-json", "", "-sweep: write the deterministic sweep/Pareto report to this file as JSON (with -trace, an attribution section derived from the cell spans is merged in)")

		tracePath   = fs.String("trace", "", "record the search's flight-recorder timeline and write it as JSONL (one event per line) to this file; works for single runs and -sweep")
		traceChrome = fs.String("trace-chrome", "", "record the search timeline and write it in Chrome trace_event format, block searches nested under their selection stages and sweep cells (load in Perfetto / chrome://tracing); works for single runs and -sweep")
		jsonOut     = fs.Bool("json", false, "emit the selection report as JSON on stdout instead of the table (includes per-block statuses and Stats)")
	)
	fs.Parse(argv)

	if *list {
		for _, k := range workload.All() {
			fmt.Printf("%-12s entry %s(%v), outputs %v\n", k.Name, k.Entry, k.Args, k.Outputs)
		}
		return nil
	}

	if err := checkModeFlags(fs, *sweep); err != nil {
		return err
	}

	if *kernel != "" {
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "src", "entry", "args", "unroll": // configure a -src program
				if conflict == "" {
					conflict = f.Name
				}
			}
		})
		if conflict != "" {
			return fmt.Errorf("-%s cannot be combined with -kernel: a kernel brings its own source, entry, arguments and unrolling", conflict)
		}
	}

	tel := startTelemetry(*tracePath, *traceChrome)
	if *sweep {
		return runSweep(*kernel, *sweepTargets, *sweepConstraints, *sweepNinstr,
			*sweepMode, *sweepJSON, *budget, *workers, *deadline, tel)
	}

	if err := checkPorts(*nin, *nout); err != nil {
		return err
	}

	var (
		m    *ir.Module
		k    *workload.Kernel
		args []int32
		err  error
	)
	switch {
	case *kernel != "":
		k = workload.ByName(*kernel)
		if k == nil {
			return fmt.Errorf("unknown kernel %q", *kernel)
		}
		m, err = k.Prepare()
		if err != nil {
			return err
		}
	case *srcPath != "":
		src, rerr := os.ReadFile(*srcPath)
		if rerr != nil {
			return rerr
		}
		m, err = minic.Compile(string(src), minic.Options{UnrollLimit: *unroll})
		if err != nil {
			return err
		}
		if err := passes.Run(m, passes.Options{}); err != nil {
			return err
		}
		for _, s := range strings.Split(*argList, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			v, perr := strconv.ParseInt(s, 0, 32)
			if perr != nil {
				return fmt.Errorf("bad -args value %q: %v", s, perr)
			}
			args = append(args, int32(v))
		}
		env := interp.NewEnv(m)
		env.Profile = true
		if _, _, err := env.Call(*entry, args...); err != nil {
			return fmt.Errorf("profiling run: %w", err)
		}
	default:
		return fmt.Errorf("one of -src or -kernel is required")
	}

	if *showIR {
		fmt.Print(m.String())
	}

	model := latency.Default()
	cfg := core.Config{Nin: *nin, Nout: *nout, Model: model, MaxCuts: *budget,
		Workers: *workers, PruneInputs: true, PruneMerit: true, Probe: tel.probe}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	var sel core.SelectionResult
	switch *method {
	case "iterative":
		sel = core.SelectIterativeCtx(ctx, m, *ninstr, cfg)
	case "optimal":
		sel = core.SelectOptimalCtx(ctx, m, *ninstr, cfg)
	case "clubbing":
		sel = baseline.SelectClubbing(m, *ninstr, cfg)
	case "maxmiso":
		sel = baseline.SelectMaxMISO(m, *ninstr, cfg)
	default:
		return fmt.Errorf("unknown method %q", *method)
	}

	if _, err := tel.finish(); err != nil {
		return err
	}
	if *jsonOut {
		if err := writeJSONReport(os.Stdout, *method, *nin, *nout, *ninstr, sel); err != nil {
			return err
		}
	} else {
		t := &report.Table{
			Title:  fmt.Sprintf("Selected instruction-set extensions (%s, Nin=%d, Nout=%d)", *method, *nin, *nout),
			Header: []string{"#", "function", "block", "size", "in", "out", "comps", "hw cyc", "saved/exec", "freq", "merit", "area"},
		}
		for i, s := range sel.Instructions {
			t.AddRow(i, s.Fn.Name, s.Block.Name, s.Est.Size, s.Est.In, s.Est.Out,
				s.Est.Components, s.Est.HWCycles, s.Est.Saved, s.Est.Freq, s.Est.Merit,
				fmt.Sprintf("%.3f", s.Est.Area))
		}
		fmt.Print(t.String())
		fmt.Printf("total estimated merit: %d cycles; identification calls: %d; cuts considered: %d (%d passed, %d pruned)",
			sel.TotalMerit, sel.IdentCalls, sel.Stats.CutsConsidered, sel.Stats.Passed, sel.Stats.Pruned)
		fmt.Printf("; status: %s", sel.Status)
		if sel.Degraded() {
			fmt.Printf(" (search degraded; results are lower bounds)")
		}
		fmt.Println()
		for _, sh := range sel.SharedInstructions {
			fmt.Printf("  shared datapath %s: %d instruction(s) (%s)\n",
				sh.Hash[:16], sh.Count, strings.Join(sh.Blocks, ", "))
		}
		if sel.Degraded() {
			for _, b := range sel.Blocks {
				if b.Status == core.Exhaustive {
					continue
				}
				line := fmt.Sprintf("  block %s/%s: %s", b.Fn, b.Block, b.Status)
				switch b.Rung {
				case core.RungWindowed:
					line += " (rescued with the windowed heuristic)"
				case core.RungGreedy:
					line += " (rescued with the greedy last resort)"
				}
				if b.Err != nil {
					line += fmt.Sprintf(" — %v", b.Err)
				}
				fmt.Println(line)
			}
		}
	}

	if *strict && sel.Degraded() {
		// The report above was still written; the nonzero exit is the
		// machine-checkable signal that it holds lower bounds, not the
		// exact answer.
		return errStrictDegraded
	}

	if *dotTo != "" && len(sel.Instructions) > 0 {
		s := sel.Instructions[0]
		li := ir.Liveness(s.Fn)
		g, err := dfg.Build(s.Fn, s.Block, li)
		if err != nil {
			return fmt.Errorf("dot output: %w", err)
		}
		var cut dfg.Cut
		for _, id := range g.OpOrder {
			for _, idx := range s.InstrIndexes {
				if g.Nodes[id].InstrIndex == idx {
					cut = append(cut, id)
				}
			}
		}
		if err := os.WriteFile(*dotTo, []byte(g.Dot(cut)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (dataflow graph of %s/%s)\n", *dotTo, s.Fn.Name, s.Block.Name)
	}

	writeIR := func() error {
		if *emitIR == "" {
			return nil
		}
		if err := os.WriteFile(*emitIR, []byte(ir.Serialize(m)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (textual IR)\n", *emitIR)
		return nil
	}
	if !*simulate && *verilogTo == "" {
		return writeIR()
	}
	if len(sel.Instructions) == 0 {
		fmt.Println("nothing selected; skipping patch/emit")
		return writeIR()
	}

	var base *sim.Report
	var baseOut programOutputs
	if *simulate {
		// The unpatched run, before the patch changes m.
		base, baseOut, err = simulateRun(m, model, k, *entry, args)
		if err != nil {
			return fmt.Errorf("unpatched simulation: %w", err)
		}
	}

	afus, skipped, err := core.ApplySelection(m, sel.Instructions, model)
	if err != nil {
		return fmt.Errorf("patching: %w", err)
	}
	if len(skipped) > 0 {
		fmt.Printf("note: %d cut(s) skipped (not atomically schedulable)\n", len(skipped))
	}
	fmt.Printf("patched in %d custom instruction(s)\n", len(afus))

	if *simulate {
		interp.ClearProfile(m)
		rep, out, err := simulateRun(m, model, k, *entry, args)
		if err != nil {
			return fmt.Errorf("patched simulation: %w", err)
		}
		fmt.Printf("cycles: %d -> %d  (measured speedup %.3fx)\n",
			base.Cycles, rep.Cycles, float64(base.Cycles)/float64(rep.Cycles))
		if err := diffOutputs(baseOut, out); err != nil {
			return fmt.Errorf("patched program: %w", err)
		}
		fmt.Printf("outputs: match (return value and %d global(s))\n", len(out.names))
	}

	if *verilogTo != "" {
		if err := os.MkdirAll(*verilogTo, 0o755); err != nil {
			return err
		}
		for _, ai := range afus {
			d := &m.AFUs[ai]
			v, err := rtl.Verilog(d)
			if err != nil {
				return err
			}
			tb, err := rtl.Testbench(d, defaultVectors(d))
			if err != nil {
				return err
			}
			path := filepath.Join(*verilogTo, fmt.Sprintf("%s.v", d.Name))
			if err := os.WriteFile(path, []byte(v+"\n"+tb), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d in, %d out, %d cycle(s), %.3f MAC area)\n",
				path, d.NumIn, len(d.OutSlots), d.Latency, d.Area)
		}
	}
	return writeIR()
}

// checkPorts rejects port counts no special instruction can use: it
// needs at least one register-file read and one write port.
func checkPorts(nin, nout int) error {
	if nin < 1 || nout < 1 {
		return fmt.Errorf("-nin and -nout must be at least 1 (got %d and %d)", nin, nout)
	}
	return nil
}

// jsonReport is the machine-readable selection report (-json).
type jsonReport struct {
	Method       string       `json:"method"`
	Nin          int          `json:"nin"`
	Nout         int          `json:"nout"`
	Ninstr       int          `json:"ninstr"`
	TotalMerit   int64        `json:"total_merit"`
	IdentCalls   int          `json:"ident_calls"`
	Status       string       `json:"status"`
	Degraded     bool         `json:"degraded"`
	FirstPanic   string       `json:"first_panic,omitempty"`
	Stats        jsonStats    `json:"stats"`
	Instructions []jsonInstr  `json:"instructions"`
	Shared       []jsonShared `json:"shared_instructions,omitempty"`
	Blocks       []jsonBlock  `json:"blocks"`
}

// jsonShared is one group of selected instructions whose datapaths
// canonicalize identically (core.SharedInstruction).
type jsonShared struct {
	Hash    string   `json:"hash"`
	Count   int      `json:"count"`
	Members []int    `json:"members"`
	Blocks  []string `json:"blocks"`
}

type jsonStats struct {
	CutsConsidered int64 `json:"cuts_considered"`
	Passed         int64 `json:"passed"`
	Pruned         int64 `json:"pruned"`
	Bounded        int64 `json:"bounded"`
	Aborted        bool  `json:"aborted"`
}

type jsonInstr struct {
	Fn       string  `json:"fn"`
	Block    string  `json:"block"`
	Size     int     `json:"size"`
	In       int     `json:"in"`
	Out      int     `json:"out"`
	HWCycles int     `json:"hw_cycles"`
	Saved    int64   `json:"saved_per_exec"`
	Freq     int64   `json:"freq"`
	Merit    int64   `json:"merit"`
	Area     float64 `json:"area"`
}

type jsonBlock struct {
	Fn       string `json:"fn"`
	Block    string `json:"block"`
	Status   string `json:"status"`
	Rung     string `json:"rung"`
	Fallback bool   `json:"fallback,omitempty"`
	Err      string `json:"err,omitempty"`
}

func writeJSONReport(w *os.File, method string, nin, nout, ninstr int, sel core.SelectionResult) error {
	rep := jsonReport{
		Method:     method,
		Nin:        nin,
		Nout:       nout,
		Ninstr:     ninstr,
		TotalMerit: sel.TotalMerit,
		IdentCalls: sel.IdentCalls,
		Status:     sel.Status.String(),
		Degraded:   sel.Degraded(),
		FirstPanic: sel.FirstPanic,
		Stats: jsonStats{
			CutsConsidered: sel.Stats.CutsConsidered,
			Passed:         sel.Stats.Passed,
			Pruned:         sel.Stats.Pruned,
			Bounded:        sel.Stats.Bounded,
			Aborted:        sel.Stats.Aborted,
		},
	}
	for _, s := range sel.Instructions {
		rep.Instructions = append(rep.Instructions, jsonInstr{
			Fn: s.Fn.Name, Block: s.Block.Name,
			Size: s.Est.Size, In: s.Est.In, Out: s.Est.Out,
			HWCycles: s.Est.HWCycles, Saved: s.Est.Saved, Freq: s.Est.Freq,
			Merit: s.Est.Merit, Area: s.Est.Area,
		})
	}
	for _, sh := range sel.SharedInstructions {
		rep.Shared = append(rep.Shared, jsonShared{
			Hash: sh.Hash, Count: sh.Count, Members: sh.Members, Blocks: sh.Blocks,
		})
	}
	for _, b := range sel.Blocks {
		jb := jsonBlock{Fn: b.Fn, Block: b.Block, Status: b.Status.String(),
			Rung: b.Rung.String(), Fallback: b.Fallback}
		if b.Err != nil {
			jb.Err = b.Err.Error()
		}
		rep.Blocks = append(rep.Blocks, jb)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// programOutputs is what one run of a program computes: the entry
// function's return value and the contents of the compared globals.
type programOutputs struct {
	ret     int32
	names   []string
	globals [][]int32
}

// simulateRun runs the program on the cycle simulator — a kernel from
// its entry, arguments and inputs, a -src program from entry(args...)
// — and returns the cycle report with the run's outputs: the kernel's
// Outputs globals, or every global of a -src program.
func simulateRun(m *ir.Module, model *latency.Model, k *workload.Kernel, entry string, args []int32) (*sim.Report, programOutputs, error) {
	var out programOutputs
	var env *interp.Env
	runner := &sim.Runner{Model: model, Setup: func(e *interp.Env) error {
		env = e
		if k != nil {
			return k.SetInputs(e)
		}
		return nil // a -src program has no inputs
	}}
	if k != nil {
		entry, args, out.names = k.Entry, k.Args, k.Outputs
	} else {
		for _, g := range m.Globals {
			out.names = append(out.names, g.Name)
		}
	}
	rep, err := runner.Run(m, entry, args...)
	if err != nil {
		return nil, out, err
	}
	out.ret = rep.Ret
	for _, name := range out.names {
		vals, err := env.GlobalSlice(name)
		if err != nil {
			return nil, out, err
		}
		out.globals = append(out.globals, append([]int32(nil), vals...))
	}
	return rep, out, nil
}

// diffOutputs names the first difference between the outputs of the
// original program (want) and the patched one (got), or returns nil.
func diffOutputs(want, got programOutputs) error {
	if got.ret != want.ret {
		return fmt.Errorf("returned %d, the original %d", got.ret, want.ret)
	}
	for i, name := range want.names {
		for j, v := range want.globals[i] {
			if g := got.globals[i][j]; g != v {
				return fmt.Errorf("%s[%d] = %d, the original %d", name, j, g, v)
			}
		}
	}
	return nil
}

// defaultVectors produces a few deterministic test vectors for an AFU's
// self-checking bench.
func defaultVectors(d *ir.AFUDef) [][]int32 {
	patterns := []int32{0, 1, -1, 7, -128, 32767, -32768, 123456789}
	var out [][]int32
	for v := 0; v < 6; v++ {
		vec := make([]int32, d.NumIn)
		for i := range vec {
			vec[i] = patterns[(v+i*3)%len(patterns)]
		}
		out = append(out, vec)
	}
	return out
}
