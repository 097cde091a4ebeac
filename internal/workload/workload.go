// Package workload provides the benchmark programs of the evaluation.
// The paper runs on a subset of MediaBench compiled with SUIF; those C
// sources are transliterated here into MiniC kernels with the same
// operation mix and basic-block structure (see DESIGN.md §4 for the
// substitution argument). Each kernel carries a driver entry point, a
// deterministic input generator and the list of output globals used for
// correctness checks.
package workload

import (
	"fmt"

	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/minic"
	"isex/internal/passes"
)

// Kernel is one benchmark program.
type Kernel struct {
	Name   string
	Source string
	// Entry is the function the driver calls (with Args) to execute the
	// kernel once.
	Entry string
	Args  []int32
	// Inputs maps global names to deterministic input data installed
	// before each run.
	Inputs map[string][]int32
	// Outputs lists the globals holding results (compared in tests and
	// after ISE patching).
	Outputs []string
	// Unroll is the per-kernel loop unrolling limit handed to the front
	// end (0 = none); the paper's large blocks come from if-conversion
	// alone, but the Fig. 8 sweep also wants bigger blocks (§9 names
	// unrolling as the standard way to get them).
	Unroll int
}

// Build compiles the kernel and runs the preprocessing pipeline
// (if-conversion and scalar cleanups).
func (k *Kernel) Build() (*ir.Module, error) {
	m, err := minic.Compile(k.Source, minic.Options{UnrollLimit: k.Unroll})
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", k.Name, err)
	}
	if err := passes.Run(m, passes.Options{}); err != nil {
		return nil, fmt.Errorf("workload %s: %w", k.Name, err)
	}
	return m, nil
}

// SetInputs installs the kernel's inputs into env. It has the shape of
// sim.Runner.Setup, so a simulation of the kernel can pass it directly.
func (k *Kernel) SetInputs(env *interp.Env) error {
	for name, vals := range k.Inputs {
		if err := env.SetGlobal(name, vals); err != nil {
			return fmt.Errorf("workload %s: %w", k.Name, err)
		}
	}
	return nil
}

// NewEnv creates an execution environment with the kernel's inputs
// installed.
func (k *Kernel) NewEnv(m *ir.Module) (*interp.Env, error) {
	env := interp.NewEnv(m)
	if err := k.SetInputs(env); err != nil {
		return nil, err
	}
	return env, nil
}

// Run executes the kernel once in a fresh environment and returns the
// environment for output inspection.
func (k *Kernel) Run(m *ir.Module) (*interp.Env, error) {
	env, err := k.NewEnv(m)
	if err != nil {
		return nil, err
	}
	if _, _, err := env.Call(k.Entry, k.Args...); err != nil {
		return nil, fmt.Errorf("workload %s: %w", k.Name, err)
	}
	return env, nil
}

// Prepare builds the kernel and profiles it (block frequencies filled),
// ready for identification.
func (k *Kernel) Prepare() (*ir.Module, error) {
	m, err := k.Build()
	if err != nil {
		return nil, err
	}
	env, err := k.NewEnv(m)
	if err != nil {
		return nil, err
	}
	env.Profile = true
	if _, _, err := env.Call(k.Entry, k.Args...); err != nil {
		return nil, fmt.Errorf("workload %s: profiling run: %w", k.Name, err)
	}
	return m, nil
}

// OutputImage runs the kernel and captures all output globals.
func (k *Kernel) OutputImage(m *ir.Module) (map[string][]int32, error) {
	env, err := k.Run(m)
	if err != nil {
		return nil, err
	}
	out := map[string][]int32{}
	for _, name := range k.Outputs {
		s, err := env.GlobalSlice(name)
		if err != nil {
			return nil, err
		}
		out[name] = append([]int32(nil), s...)
	}
	return out, nil
}

// All returns every kernel of the suite. The first three are the Fig. 11
// benchmarks; the rest widen the Fig. 8 block-size population.
func All() []*Kernel {
	return []*Kernel{
		AdpcmDecode(),
		AdpcmEncode(),
		GSMLPC(),
		FIR(),
		Viterbi(),
		CRC32(),
		SHA1Round(),
		FFT(),
		G721(),
		DCT(),
		SAD(),
		VLC(),
	}
}

// ByName returns the named kernel or nil.
func ByName(name string) *Kernel {
	for _, k := range All() {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// testSignal produces a deterministic pseudo-random waveform in
// [-amp, amp]; it stands in for the audio/bitstream inputs of MediaBench.
func testSignal(n int, seed uint64, amp int32) []int32 {
	out := make([]int32, n)
	s := seed*6364136223846793005 + 1442695040888963407
	for i := range out {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		v := int32(s % uint64(2*amp+1))
		out[i] = v - amp
	}
	return out
}
