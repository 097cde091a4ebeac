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
	// before the run.
	Setup func(env *interp.Env) error
	// StepLimit bounds execution (0 = interp default).
	StepLimit int64
}

// Run executes entry(args...) on m and returns the cycle report.
func (r *Runner) Run(m *ir.Module, entry string, args ...int32) (*Report, error) {
	model := r.Model
	if model == nil {
		model = latency.Default()
	}
	env := interp.NewEnv(m)
	env.StepLimit = r.StepLimit
	if r.Setup != nil {
		if err := r.Setup(env); err != nil {
			return nil, err
		}
	}
	rep := &Report{
		CustomCycles:     map[int]int64{},
		CustomExecutions: map[int]int64{},
	}
	env.Observer = func(b *ir.Block, in *ir.Instr) {
		rep.Instructions++
		if in.Op == ir.OpCustom {
			if in.AFU < 0 || in.AFU >= len(m.AFUs) {
				return // the interpreter rejects the bad index next
			}
			lat := int64(m.AFUs[in.AFU].Latency)
			if lat < 1 {
				lat = 1
			}
			rep.Cycles += lat
			rep.CustomCycles[in.AFU] += lat
			rep.CustomExecutions[in.AFU]++
			return
		}
		rep.Cycles += int64(model.SW(in.Op))
	}
	env.BlockObserver = func(b *ir.Block) {
		// One cycle per control transfer into the block's terminator.
		rep.Cycles++
		rep.ControlCycles++
	}
	ret, hasRet, err := env.Call(entry, args...)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	rep.Ret = ret
	rep.HasRet = hasRet
	return rep, nil
}

// Comparison contrasts a baseline run with a patched run.
type Comparison struct {
	Base, Patched *Report
}

// Speedup is base cycles over patched cycles.
func (c Comparison) Speedup() float64 {
	if c.Patched.Cycles == 0 {
		return 0
	}
	return float64(c.Base.Cycles) / float64(c.Patched.Cycles)
}

// Saved is the absolute cycle gain.
func (c Comparison) Saved() int64 { return c.Base.Cycles - c.Patched.Cycles }

// Compare runs entry on both modules (same setup) and pairs the reports.
func (r *Runner) Compare(base, patched *ir.Module, entry string, args ...int32) (Comparison, error) {
	rb, err := r.Run(base, entry, args...)
	if err != nil {
		return Comparison{}, err
	}
	rp, err := r.Run(patched, entry, args...)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Base: rb, Patched: rp}, nil
}
