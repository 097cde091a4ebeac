package main

import (
	"context"
	"fmt"
	"slices"

	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/latency"
	"isex/internal/minic"
	"isex/internal/passes"
	"isex/internal/rtl"
	"isex/internal/sim"
)

// ninstr is the instruction budget of every pipeline job.
const ninstr = 8

// jobSpec is one program pushed through the whole pipeline at one port
// point with one selection driver.
type jobSpec struct {
	name      string
	src       string
	unroll    int
	entry     string
	args      []int32
	inputs    map[string][]int32
	outputs   []string
	nin, nout int
	optimal   bool
	model     *latency.Model // nil selects latency.Default()
}

func (j *jobSpec) driver() string {
	if j.optimal {
		return "optimal"
	}
	return "iterative"
}

// searchConfig is the serial search with the sound §6.1 prunings under
// the 2M-cut budget, and nothing else. ISEGen, deadlines and the stall
// watchdog are left off because they make the work a job does depend on
// how fast the host happens to run; the remaining engine knobs keep
// their defaults so the benchmark measures what a library user gets and
// keeps compiling when a knob is removed.
func searchConfig(j *jobSpec) core.Config {
	return core.Config{Nin: j.nin, Nout: j.nout, Model: j.model, MaxCuts: 2_000_000,
		PruneInputs: true, PruneMerit: true}
}

// jobResult is what one repetition of a pipeline job produced.
type jobResult struct {
	err error // the correctness failure, nil when the job passed

	merit, cuts, passed, identCalls int64
	status                          core.SearchStatus
	blocks, exhaustive, rescued     int
	selected, afus                  int
	baseCycles, patchedCycles       int64
	irInstrs, dfgNodes              int64
	interpSteps, simInstrs          int64
	verilogBytes                    int64
}

// fingerprint is the work a repetition did; at a fixed configuration it
// must repeat exactly on every repetition.
func (r *jobResult) fingerprint() [4]int64 {
	return [4]int64{r.cuts, r.identCalls, r.merit, r.patchedCycles}
}

// runPipeline compiles, optimizes, profiles, builds the DFGs, selects,
// patches, simulates, re-checks and emits one job, with one span per
// layer call under the parent span. A failure ends the job with r.err
// set; it never panics or aborts the run.
func runPipeline(ctx context.Context, j *jobSpec, t *tracer, parent int) (r jobResult) {
	sp := t.begin("minic", parent)
	m, err := minic.Compile(j.src, minic.Options{UnrollLimit: j.unroll})
	t.end(sp)
	if err != nil {
		r.err = fmt.Errorf("compile: %w", err)
		return r
	}

	sp = t.begin("passes", parent)
	err = passes.Run(m, passes.Options{})
	t.end(sp)
	if err != nil {
		r.err = fmt.Errorf("passes: %w", err)
		return r
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			r.irInstrs += int64(len(b.Instrs))
		}
	}

	sp = t.begin("interp", parent)
	refRet, refOut, steps, err := execute(m, j, true)
	t.end(sp)
	r.interpSteps += steps
	if err != nil {
		r.err = fmt.Errorf("profile run: %w", err)
		return r
	}

	sp = t.begin("dfg", parent)
	graphs, err := dfg.BuildAll(m)
	t.end(sp)
	if err != nil {
		r.err = fmt.Errorf("dfg: %w", err)
		return r
	}
	for _, g := range graphs {
		r.dfgNodes += int64(len(g.Nodes))
	}

	sp = t.begin("core.select", parent)
	var sel core.SelectionResult
	if j.optimal {
		sel = core.SelectOptimalCtx(ctx, m, ninstr, searchConfig(j))
	} else {
		sel = core.SelectIterativeCtx(ctx, m, ninstr, searchConfig(j))
	}
	t.end(sp)
	r.merit, r.identCalls, r.status = sel.TotalMerit, int64(sel.IdentCalls), sel.Status
	r.cuts, r.passed = sel.Stats.CutsConsidered, sel.Stats.Passed
	r.selected = len(sel.Instructions)
	for _, b := range sel.Blocks {
		r.blocks++
		if b.Status == core.Exhaustive {
			r.exhaustive++
		}
		if b.Rung == core.RungWindowed || b.Rung == core.RungGreedy {
			r.rescued++
		}
	}

	runner := &sim.Runner{Model: j.model, Setup: func(env *interp.Env) error { return setInputs(env, j) }}
	sp = t.begin("sim", parent)
	base, err := runner.Run(m, j.entry, j.args...)
	t.end(sp)
	if err != nil {
		r.err = fmt.Errorf("base simulation: %w", err)
		return r
	}
	r.baseCycles, r.simInstrs = base.Cycles, base.Instructions

	sp = t.begin("core.patch", parent)
	afus, _, err := core.ApplySelection(m, sel.Instructions, j.model)
	t.end(sp)
	r.afus = len(afus)
	if err != nil {
		r.err = fmt.Errorf("patch: %w", err)
		return r
	}

	sp = t.begin("sim", parent)
	patched, err := runner.Run(m, j.entry, j.args...)
	t.end(sp)
	if err != nil {
		r.err = fmt.Errorf("patched simulation: %w", err)
		return r
	}
	r.patchedCycles, r.simInstrs = patched.Cycles, r.simInstrs+patched.Instructions

	sp = t.begin("interp", parent)
	ret, out, steps, err := execute(m, j, false)
	t.end(sp)
	r.interpSteps += steps
	switch {
	case err != nil:
		r.err = fmt.Errorf("patched run: %w", err)
		return r
	case ret != refRet || patched.Ret != refRet:
		r.err = fmt.Errorf("patched program returns %d (simulator %d), reference %d", ret, patched.Ret, refRet)
		return r
	}
	for i, name := range j.outputs {
		if !slices.Equal(out[i], refOut[i]) {
			r.err = fmt.Errorf("patched program changes output %s", name)
			return r
		}
	}

	sp = t.begin("rtl", parent)
	for i := range m.AFUs {
		v, verr := rtl.Verilog(&m.AFUs[i])
		if verr != nil && err == nil {
			err = fmt.Errorf("verilog for AFU %d: %w", i, verr)
		}
		r.verilogBytes += int64(len(v))
	}
	t.end(sp)
	if err != nil {
		r.err = err
	}
	return r
}

func setInputs(env *interp.Env, j *jobSpec) error {
	for name, vals := range j.inputs {
		if err := env.SetGlobal(name, vals); err != nil {
			return err
		}
	}
	return nil
}

// execute runs the job's entry point once on the interpreter and returns
// its result, a copy of each output global and the executed step count.
func execute(m *ir.Module, j *jobSpec, profile bool) (int32, [][]int32, int64, error) {
	env := interp.NewEnv(m)
	env.Profile = profile
	if err := setInputs(env, j); err != nil {
		return 0, nil, 0, err
	}
	ret, _, err := env.Call(j.entry, j.args...)
	if err != nil {
		return 0, nil, env.Steps(), err
	}
	outs := make([][]int32, len(j.outputs))
	for i, name := range j.outputs {
		s, err := env.GlobalSlice(name)
		if err != nil {
			return 0, nil, env.Steps(), err
		}
		outs[i] = slices.Clone(s)
	}
	return ret, outs, env.Steps(), nil
}
