// Package pipeline is the tool chain written once: it compiles a
// program, profiles it, selects instruction-set extensions, patches them
// in, runs the patched program again to check that it computes what the
// original did, prices both runs on the cycle model and renders every
// new AFU as Verilog. The isex command, the Fig. 11 measured cells and
// the examples all run it; the paper estimates a selection's speedup
// (§7–8), and Run measures what the patched program delivers.
package pipeline

import (
	"context"
	"fmt"
	"strings"

	"isex/internal/baseline"
	"isex/internal/core"
	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/rtl"
	"isex/internal/sim"
	"isex/internal/workload"
)

// Methods names the selection algorithms Select knows, the default
// first: the §6.3 iterative and §6.2 optimal drivers, the clubbing and
// MaxMISO baselines of Fig. 11, and the recurrence school of §3.
var Methods = []string{"iterative", "optimal", "clubbing", "maxmiso", "recurrence"}

// Select runs the named selection algorithm (one of Methods; "" is
// iterative) on the profiled module m. ctx bounds the exact searches of
// iterative and optimal; the linear-time baselines ignore it. An unknown
// method is an error that names it.
func Select(ctx context.Context, method string, m *ir.Module, ninstr int, cfg core.Config) (core.SelectionResult, error) {
	switch method {
	case "", "iterative":
		return core.SelectIterativeCtx(ctx, m, ninstr, cfg), nil
	case "optimal":
		return core.SelectOptimalCtx(ctx, m, ninstr, cfg), nil
	case "clubbing":
		return baseline.SelectClubbing(m, ninstr, cfg), nil
	case "maxmiso":
		return baseline.SelectMaxMISO(m, ninstr, cfg), nil
	case "recurrence":
		return baseline.SelectRecurrence(m, ninstr, cfg), nil
	}
	return core.SelectionResult{}, fmt.Errorf("unknown method %q (want one of %s)", method, strings.Join(Methods, ", "))
}

// Options configure one Run. The zero value selects nothing; set Ninstr.
type Options struct {
	// Method is the selection algorithm, one of Methods; "" is iterative.
	Method string
	// Ninstr is the largest number of custom instructions to select.
	Ninstr int
	// Config constrains and tunes the selection. Its Model (nil is
	// latency.Default) also builds the patched AFUs and prices both runs.
	Config core.Config
}

// Report is what one Run selected, patched and measured.
type Report struct {
	// Module is the patched program; its block frequencies are those of
	// the patched run.
	Module *ir.Module
	// Selection is Select's answer. Its blocks are Module's, patched in
	// place, so each InstrIndexes refers to the block before the patch.
	Selection core.SelectionResult
	// AFUs indexes Module.AFUs by the materialized instructions, in
	// patch order. Skipped lists the selected cuts the patcher could not
	// schedule atomically (see core.ApplySelection).
	AFUs    []int
	Skipped []core.Selected
	// Verilog is rtl.Verilog of each AFUs entry.
	Verilog []string
	// BaseCycles and PatchedCycles price the original and the patched
	// run under Config.Model (sim.FromProfile).
	BaseCycles, PatchedCycles int64
}

// Run takes the kernel k through the whole chain. It compiles k once and
// executes it twice, each time from k.Entry with k.Args and k's inputs,
// with profiling on:
//
//  1. the original program, whose return value and globals are the
//     reference and whose profile weights the selection and gives
//     BaseCycles;
//  2. after Select and core.ApplySelection, the patched program, which
//     must reproduce the reference (else Run returns an error naming the
//     first differing element) and gives PatchedCycles.
//
// Only the selection reads ctx, but a deadline on it runs from when the
// caller set it, compile and first run included. Every materialized AFU
// is then rendered as Verilog.
func Run(ctx context.Context, k *workload.Kernel, opt Options) (*Report, error) {
	m, err := k.Build()
	if err != nil {
		return nil, err
	}
	model := opt.Config.Model
	ref, err := profile(m, k)
	if err != nil {
		return nil, fmt.Errorf("profiling run: %w", err)
	}
	rep := &Report{Module: m, BaseCycles: sim.FromProfile(m, model).Cycles}
	if rep.Selection, err = Select(ctx, opt.Method, m, opt.Ninstr, opt.Config); err != nil {
		return nil, err
	}
	if rep.AFUs, rep.Skipped, err = core.ApplySelection(m, rep.Selection.Instructions, model); err != nil {
		return nil, fmt.Errorf("patching: %w", err)
	}
	interp.ClearProfile(m)
	out, err := profile(m, k)
	if err != nil {
		return nil, fmt.Errorf("patched run: %w", err)
	}
	if err := diffOutputs(ref, out); err != nil {
		return nil, fmt.Errorf("patched program: %w", err)
	}
	rep.PatchedCycles = sim.FromProfile(m, model).Cycles
	for _, ai := range rep.AFUs {
		v, err := rtl.Verilog(&m.AFUs[ai])
		if err != nil {
			return nil, err
		}
		rep.Verilog = append(rep.Verilog, v)
	}
	return rep, nil
}

// outputs is what one run of a program computes: the entry function's
// return value and the contents of every global.
type outputs struct {
	ret     int32
	names   []string
	globals [][]int32
}

// profile runs k's entry on m once with profiling on, filling every
// block's Freq, and returns the run's outputs.
func profile(m *ir.Module, k *workload.Kernel) (outputs, error) {
	var out outputs
	env, err := k.NewEnv(m)
	if err != nil {
		return out, err
	}
	env.Profile = true
	if out.ret, _, err = env.Call(k.Entry, k.Args...); err != nil {
		return out, err
	}
	for _, g := range m.Globals {
		vals, err := env.GlobalSlice(g.Name)
		if err != nil {
			return out, err
		}
		out.names = append(out.names, g.Name)
		out.globals = append(out.globals, append([]int32(nil), vals...))
	}
	return out, nil
}

// diffOutputs names the first difference between the outputs of the
// original program (want) and the patched one (got), or returns nil.
func diffOutputs(want, got outputs) error {
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
