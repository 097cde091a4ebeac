// Package isex is the public face of the library: a compact API over the
// full tool chain (MiniC front end → optimization → profiling →
// instruction-set-extension identification → patching → cycle simulation
// → Verilog emission). The heavy lifting lives in internal packages; the
// aliases below are the supported surface.
//
// Typical use:
//
//	p, _ := isex.Compile(src)
//	p.Profile("kernel", 64)
//	sel, _ := p.Identify(isex.Constraints{Nin: 2, Nout: 1}, 4)
//	p.Apply(sel)
//	cycles, _ := p.MeasureCycles("kernel", 64)
package isex

import (
	"context"
	"fmt"
	"time"

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

// Constraints are the microarchitectural limits of Problem 1 (§5 of the
// paper): register-file read ports (Nin) and write ports (Nout)
// available to a custom instruction, plus an optional search budget.
// Every search runs with the two sound subtree eliminations beyond the
// paper's (core.Config's PruneInputs and PruneMerit): they change how
// many cuts a search considers, never the answer of a search that
// completes.
type Constraints struct {
	Nin, Nout int
	// MaxCuts bounds the cuts considered per identification call
	// (0 = unlimited); budget-stopped results are lower bounds.
	MaxCuts int64
	// Workers, when positive, runs each block's exact search on the
	// parallel branch-and-bound engine with that many workers; a search
	// that outlasts a poll interval is split among them. Results are
	// bit-identical to the serial search.
	Workers int
	// Deadline, when positive, bounds the wall-clock time of an
	// identification call: the search returns the best selection found so
	// far when it expires (equivalent to passing a context with timeout
	// to the *Ctx variants). Per-block outcomes are reported on the
	// Selection's BlockStatuses.
	Deadline time.Duration
}

func (c Constraints) config() core.Config {
	return core.Config{Nin: c.Nin, Nout: c.Nout, MaxCuts: c.MaxCuts,
		Workers: c.Workers, PruneInputs: true, PruneMerit: true}
}

// SearchStatus classifies how an identification search ended: Exhaustive
// results are exact under the configured algorithm, all other statuses
// mark sound best-effort lower bounds (see the core package for the
// detailed semantics).
type SearchStatus = core.SearchStatus

// The per-block (and aggregate) search outcomes, from best to worst.
const (
	Exhaustive       = core.Exhaustive
	BudgetStopped    = core.BudgetStopped
	DeadlineExceeded = core.DeadlineExceeded
	Canceled         = core.Canceled
	Recovered        = core.Recovered
)

// BlockStatus reports how the search of one basic block ended, including
// whether the §9 windowed fallback rescued it and any recovered error.
type BlockStatus = core.BlockStatus

// SharedInstruction is a group of selected instructions whose datapaths
// canonicalize identically (see Selection.SharedInstructions).
type SharedInstruction = core.SharedInstruction

// Selection is a chosen set of custom instructions.
type Selection struct {
	inner core.SelectionResult
}

// Count returns the number of selected instructions.
func (s Selection) Count() int { return len(s.inner.Instructions) }

// EstimatedGain returns the total estimated cycle gain (merit).
func (s Selection) EstimatedGain() int64 { return s.inner.TotalMerit }

// Status returns the worst per-block search status: Exhaustive means the
// selection is exact under the configured algorithm; anything else means
// a budget, deadline, cancellation, or recovered failure degraded it to a
// sound lower bound.
func (s Selection) Status() SearchStatus { return s.inner.Status }

// Degraded reports whether any per-block search ended early; the
// selection is then a best-effort lower bound, not the exact answer.
func (s Selection) Degraded() bool { return s.inner.Degraded() }

// BlockStatuses returns the per-block search outcomes (sorted by function
// name, then block name), so callers can report exactly how trustworthy
// each block's contribution is.
func (s Selection) BlockStatuses() []BlockStatus {
	return append([]BlockStatus(nil), s.inner.Blocks...)
}

// SharedInstructions returns the groups of selected instructions whose
// datapaths canonicalize identically — candidates for one shared
// hardware implementation.
func (s Selection) SharedInstructions() []SharedInstruction {
	return append([]SharedInstruction(nil), s.inner.SharedInstructions...)
}

// FirstPanic returns the first recovered panic across the per-block
// searches (message plus a truncated stack excerpt), or "" when nothing
// panicked. The selection survives recovered panics; this surfaces what
// was survived for logging and bug reports.
func (s Selection) FirstPanic() string { return s.inner.FirstPanic }

// Describe returns a one-line summary per instruction.
func (s Selection) Describe() []string {
	var out []string
	for _, ins := range s.inner.Instructions {
		out = append(out, fmt.Sprintf("%s/%s: %d ops, %d->%d ports, saves %d cycles x %d executions",
			ins.Fn.Name, ins.Block.Name, ins.Est.Size, ins.Est.In, ins.Est.Out,
			ins.Est.Saved, ins.Est.Freq))
	}
	return out
}

// Program is a compiled, preprocessable, patchable MiniC program.
type Program struct {
	mod    *ir.Module
	inputs map[string][]int32
}

// CompileOptions tune compilation.
type CompileOptions struct {
	// UnrollLimit fully unrolls counted loops up to this trip count.
	UnrollLimit int
	// SkipOptimize disables the standard pass pipeline (if-conversion and
	// scalar cleanups); identification quality drops accordingly.
	SkipOptimize bool
}

// Compile builds a program from MiniC source with default options.
func Compile(src string) (*Program, error) {
	return CompileWith(src, CompileOptions{})
}

// CompileWith builds a program with explicit options.
func CompileWith(src string, opt CompileOptions) (*Program, error) {
	m, err := minic.Compile(src, minic.Options{UnrollLimit: opt.UnrollLimit})
	if err != nil {
		return nil, err
	}
	if !opt.SkipOptimize {
		if err := passes.Run(m, passes.Options{}); err != nil {
			return nil, err
		}
	}
	return &Program{mod: m, inputs: map[string][]int32{}}, nil
}

// LoadIR builds a program from the textual IR format (see SerializeIR).
// Beyond the structural verification ParseModule performs, every basic
// block's dataflow graph is constructed once at this boundary, so
// malformed IR (e.g. a hand-edited file whose operation graph is cyclic)
// yields an error here instead of a crash deep inside identification.
func LoadIR(text string) (*Program, error) {
	m, err := ir.ParseModule(text)
	if err != nil {
		return nil, err
	}
	if _, err := dfg.BuildAll(m); err != nil {
		return nil, fmt.Errorf("isex: invalid IR: %w", err)
	}
	return &Program{mod: m, inputs: map[string][]int32{}}, nil
}

// SetInput installs initial contents for a global array before every
// profiling, execution or measurement run.
func (p *Program) SetInput(global string, values []int32) {
	p.inputs[global] = append([]int32(nil), values...)
}

func (p *Program) newEnv() (*interp.Env, error) {
	env := interp.NewEnv(p.mod)
	for name, vals := range p.inputs {
		if err := env.SetGlobal(name, vals); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// Profile executes entry(args...) once, recording basic-block execution
// counts; identification weights cuts with these counts.
func (p *Program) Profile(entry string, args ...int32) error {
	interp.ClearProfile(p.mod)
	env, err := p.newEnv()
	if err != nil {
		return err
	}
	env.Profile = true
	_, _, err = env.Call(entry, args...)
	return err
}

// Run executes entry(args...) and returns its result (0 for void
// functions).
func (p *Program) Run(entry string, args ...int32) (int32, error) {
	env, err := p.newEnv()
	if err != nil {
		return 0, err
	}
	ret, _, err := env.Call(entry, args...)
	return ret, err
}

// RunAndRead executes entry(args...) like Run, then returns its result
// together with a copy of each named global's contents as the run left
// them, keyed by name. Inputs installed with SetInput are applied before
// the run; an unknown global name is an error.
func (p *Program) RunAndRead(entry string, globals []string, args ...int32) (int32, map[string][]int32, error) {
	env, err := p.newEnv()
	if err != nil {
		return 0, nil, err
	}
	ret, _, err := env.Call(entry, args...)
	if err != nil {
		return 0, nil, err
	}
	state := map[string][]int32{}
	for _, g := range globals {
		s, err := env.GlobalSlice(g)
		if err != nil {
			return 0, nil, err
		}
		state[g] = append([]int32(nil), s...)
	}
	return ret, state, nil
}

// checkPorts validates the microarchitectural constraints.
func checkPorts(c Constraints) error {
	if c.Nin < 1 || c.Nout < 1 {
		return fmt.Errorf("isex: need at least one read and one write port")
	}
	return nil
}

// searchContext derives the identification context: the caller's ctx,
// tightened by the Constraints' Deadline when one is set.
func searchContext(ctx context.Context, c Constraints) (context.Context, context.CancelFunc) {
	if c.Deadline > 0 {
		return context.WithTimeout(ctx, c.Deadline)
	}
	return ctx, func() {}
}

// Identify selects up to ninstr custom instructions with the iterative
// algorithm of §6.3 (call Profile first for meaningful weighting).
func (p *Program) Identify(c Constraints, ninstr int) (Selection, error) {
	return p.IdentifyCtx(context.Background(), c, ninstr)
}

// IdentifyCtx is Identify under a context: the search is an anytime
// procedure that polls ctx (and the Constraints' Deadline, if set),
// returns the best selection found so far on expiry, rescues tripped
// blocks with the §9 windowed heuristic, and recovers per-block panics.
// Inspect the Selection's Status/BlockStatuses for how it ended.
func (p *Program) IdentifyCtx(ctx context.Context, c Constraints, ninstr int) (Selection, error) {
	if err := checkPorts(c); err != nil {
		return Selection{}, err
	}
	ctx, cancel := searchContext(ctx, c)
	defer cancel()
	return Selection{inner: core.SelectIterativeCtx(ctx, p.mod, ninstr, c.config())}, nil
}

// IdentifyAreaConstrained selects under a silicon budget (normalized
// 32-bit-MAC equivalents): §9's instruction-selection-under-area-
// constraint, solved by a knapsack over the iterative candidate pool.
func (p *Program) IdentifyAreaConstrained(c Constraints, ninstr int, areaBudget float64) (Selection, error) {
	return p.IdentifyAreaConstrainedCtx(context.Background(), c, ninstr, areaBudget)
}

// IdentifyAreaConstrainedCtx is IdentifyAreaConstrained under a context;
// see IdentifyCtx for the anytime semantics.
func (p *Program) IdentifyAreaConstrainedCtx(ctx context.Context, c Constraints, ninstr int, areaBudget float64) (Selection, error) {
	if err := checkPorts(c); err != nil {
		return Selection{}, err
	}
	ctx, cancel := searchContext(ctx, c)
	defer cancel()
	return Selection{inner: core.SelectAreaConstrainedCtx(ctx, p.mod, ninstr, areaBudget, 0, c.config())}, nil
}

// IdentifyOptimal uses the optimal selection of §6.2 (exponentially more
// expensive on large blocks; set MaxCuts or a Deadline).
func (p *Program) IdentifyOptimal(c Constraints, ninstr int) (Selection, error) {
	return p.IdentifyOptimalCtx(context.Background(), c, ninstr)
}

// IdentifyOptimalCtx is IdentifyOptimal under a context; see IdentifyCtx
// for the anytime semantics.
func (p *Program) IdentifyOptimalCtx(ctx context.Context, c Constraints, ninstr int) (Selection, error) {
	if err := checkPorts(c); err != nil {
		return Selection{}, err
	}
	ctx, cancel := searchContext(ctx, c)
	defer cancel()
	return Selection{inner: core.SelectOptimalCtx(ctx, p.mod, ninstr, c.config())}, nil
}

// Apply patches the selection into the program as custom instructions
// backed by AFU definitions. It returns how many instructions were
// materialized, which can be fewer than the selection holds: a cut that
// cannot be scheduled atomically, because the patcher honours register
// anti-dependences that the search does not model, is skipped.
func (p *Program) Apply(sel Selection) (int, error) {
	afus, _, err := core.ApplySelection(p.mod, sel.inner.Instructions, nil)
	if err != nil {
		return 0, err
	}
	interp.ClearProfile(p.mod)
	return len(afus), nil
}

// MeasureCycles runs entry(args...) on the single-issue cycle model and
// returns the executed cycle count.
func (p *Program) MeasureCycles(entry string, args ...int32) (int64, error) {
	runner := &sim.Runner{Setup: func(env *interp.Env) error {
		for name, vals := range p.inputs {
			if err := env.SetGlobal(name, vals); err != nil {
				return err
			}
		}
		return nil
	}}
	rep, err := runner.Run(p.mod, entry, args...)
	if err != nil {
		return 0, err
	}
	return rep.Cycles, nil
}

// Verilog renders every AFU created by Apply as a synthesizable module.
func (p *Program) Verilog() ([]string, error) {
	var out []string
	for i := range p.mod.AFUs {
		v, err := rtl.Verilog(&p.mod.AFUs[i])
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// SerializeIR renders the program in the textual IR format (reloadable
// with LoadIR).
func (p *Program) SerializeIR() string { return ir.Serialize(p.mod) }

// DefaultModel exposes the §7 latency/area model for callers that want
// to inspect or perturb it (see internal/latency for semantics).
func DefaultModel() *latency.Model { return latency.Default() }
