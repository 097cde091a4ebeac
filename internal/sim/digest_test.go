package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"isex/internal/core"
	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/workload"
)

// simReportDigest is the SHA-256 of what the interpreter and the
// simulator report on the 12 kernels, before and after patching (see
// TestSimReportDigest). Both are rewritten for speed from time to time,
// and each rewrite must leave every report, step count and profile
// identical, so this constant moves only on purpose: a change that moves
// it updates it here and says why in CHANGES.md.
const simReportDigest = "3020ac58c24390147dc1cd3034f6248d33b1ec793c65712a2d7a6ef800bbc1e6"

// TestSimReportDigest pins, for every kernel's base program and for its
// patched programs after an iterative selection at 2/1 and 4/2, every
// field of the simulator's Report (the custom maps in AFU order), the
// interpreter's Steps() and the profiled Freq of every block.
func TestSimReportDigest(t *testing.T) {
	h := sha256.New()
	for _, k := range workload.All() {
		m, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		hashRun(t, h, k, m, "base")
		for _, ports := range [][2]int{{2, 1}, {4, 2}} {
			pm, err := k.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{Nin: ports[0], Nout: ports[1], MaxCuts: 250_000,
				PruneInputs: true, PruneMerit: true}
			sel := core.SelectIterative(pm, 8, cfg)
			if _, _, err := core.ApplySelection(pm, sel.Instructions, nil); err != nil {
				t.Fatalf("%s %d/%d: %v", k.Name, ports[0], ports[1], err)
			}
			hashRun(t, h, k, pm, fmt.Sprintf("%d/%d", ports[0], ports[1]))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != simReportDigest {
		t.Errorf("sim report digest = %s, want %s: a report, step count or profile changed",
			got, simReportDigest)
	}
}

// hashRun profiles k's entry on m from a cleared profile, simulates it,
// and writes the step count, every block's Freq and the report to h.
func hashRun(t *testing.T, h hash.Hash, k *workload.Kernel, m *ir.Module, label string) {
	t.Helper()
	interp.ClearProfile(m)
	env, err := k.NewEnv(m)
	if err != nil {
		t.Fatal(err)
	}
	env.Profile = true
	ret, hasRet, err := env.Call(k.Entry, k.Args...)
	if err != nil {
		t.Fatalf("%s %s: %v", k.Name, label, err)
	}
	fmt.Fprintf(h, "== %s %s ret=%d/%t steps=%d\n", k.Name, label, ret, hasRet, env.Steps())
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			fmt.Fprintf(h, "%s/%s %d\n", f.Name, b.Name, b.Freq)
		}
	}
	r := &Runner{Setup: func(env *interp.Env) error {
		for name, vals := range k.Inputs {
			if err := env.SetGlobal(name, vals); err != nil {
				return err
			}
		}
		return nil
	}}
	rep, err := r.Run(m, k.Entry, k.Args...)
	if err != nil {
		t.Fatalf("%s %s: %v", k.Name, label, err)
	}
	fmt.Fprintf(h, "cycles=%d instrs=%d control=%d ret=%d/%t custom=%d/%d\n", rep.Cycles,
		rep.Instructions, rep.ControlCycles, rep.Ret, rep.HasRet, len(rep.CustomCycles), len(rep.CustomExecutions))
	for i := range m.AFUs {
		fmt.Fprintf(h, "afu %d: %d cycles %d executions\n", i, rep.CustomCycles[i], rep.CustomExecutions[i])
	}
}
