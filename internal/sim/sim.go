// Package sim is a single-issue, in-order cycle-accounting simulator for
// the specialised processor of §2: a baseline RISC pipeline extended with
// AFUs. Every executed instruction is charged its execution-stage latency
// from the shared model; custom instructions are charged the ceiling of
// their datapath's critical path, exactly as the estimation model of §7
// assumes. Running the same program before and after patching therefore
// *measures* the speedup the identification algorithms *estimate* — the
// validation loop the paper leaves to future work ("we are planning to
// use a retargetable compiler to assess precise speedup potentials").
package sim

import (
	"fmt"

	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/latency"
)

// Report is the outcome of one measured run.
type Report struct {
	// Cycles is the total execution time in cycles.
	Cycles int64
	// Instructions is the dynamic instruction count (custom instructions
	// count once).
	Instructions int64
	// ControlCycles counts the one-cycle charges for block terminators
	// (jumps, branches, returns).
	ControlCycles int64
	// CustomCycles and CustomExecutions break out AFU activity per AFU
	// index.
	CustomCycles     map[int]int64
	CustomExecutions map[int]int64
	// Ret is the entry function's return value (if any).
	Ret    int32
	HasRet bool
}

// Runner executes modules under the cycle model.
type Runner struct {
	Model *latency.Model
	// Setup, if non-nil, initializes the environment (input globals)
	// before the run. Code it executes on the environment is charged to
	// the run too.
	Setup func(env *interp.Env) error
}

// defaultModel is the model of every Runner whose Model is nil.
var defaultModel = latency.Default()

// Run executes entry(args...) on m and returns the cycle report. Every
// entry of a block executes its instructions and its terminator once, so
// the report is the sum over blocks of entries times the block's static
// cost (see charge).
func (r *Runner) Run(m *ir.Module, entry string, args ...int32) (*Report, error) {
	model := modelOr(r.Model)
	env := interp.NewEnv(m)
	if r.Setup != nil {
		if err := r.Setup(env); err != nil {
			return nil, err
		}
	}
	ret, hasRet, err := env.Call(entry, args...)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	rep := newReport()
	rep.Ret, rep.HasRet = ret, hasRet
	// The run completed, so the interpreter accepted every AFU index.
	env.BlockEntries(func(b *ir.Block, n int64) { rep.charge(m, model, b, n) })
	return rep, nil
}

// FromProfile returns the report of the run that profiled m (block
// frequencies filled by interp.Env.Profile on a module that had none),
// priced under model without running m again: a block's frequency is
// exactly its entry count in that run, and Run charges per entry. The
// return value is not known, so Ret and HasRet stay zero. m's custom
// instructions, if any, must be valid AFU indices.
func FromProfile(m *ir.Module, model *latency.Model) *Report {
	model = modelOr(model)
	rep := newReport()
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			if b.Freq > 0 {
				rep.charge(m, model, b, b.Freq)
			}
		}
	}
	return rep
}

func modelOr(model *latency.Model) *latency.Model {
	if model == nil {
		return defaultModel
	}
	return model
}

func newReport() *Report {
	return &Report{CustomCycles: map[int]int64{}, CustomExecutions: map[int]int64{}}
}

// charge adds n entries of block b of m: each entry costs every
// instruction's latency (a custom instruction's AFU latency, at least 1)
// plus one control cycle for the terminator.
func (rep *Report) charge(m *ir.Module, model *latency.Model, b *ir.Block, n int64) {
	rep.Instructions += n * int64(len(b.Instrs))
	rep.ControlCycles += n
	cycles := int64(1)
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op != ir.OpCustom {
			cycles += int64(model.SW(in.Op))
			continue
		}
		lat := max(int64(m.AFUs[in.AFU].Latency), 1)
		cycles += lat
		rep.CustomCycles[in.AFU] += n * lat
		rep.CustomExecutions[in.AFU] += n
	}
	rep.Cycles += n * cycles
}
