package core

import (
	"fmt"
	"testing"

	"isex/internal/ir"
	"isex/internal/latency"
	"isex/internal/minic"
	"isex/internal/obs"
	"isex/internal/passes"
	"isex/internal/progen"
)

// twinKernels contains two functions with identical bodies but different
// names and different profiled frequencies — the repeated-structure shape
// the cross-block dedup memo exists for. The frequency difference matters:
// dedup must translate the leader's cuts, not its merits.
const twinKernels = `
int a0[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};
int out0[16];

void fa(int n) {
    int i;
    for (i = 0; i < n; i++) {
        int v = a0[i & 15];
        int w = ((v << 3) - v) + ((v >> 2) & 7);
        out0[i & 15] = w ^ (v << 1);
    }
}
void fb(int n) {
    int i;
    for (i = 0; i < n; i++) {
        int v = a0[i & 15];
        int w = ((v << 3) - v) + ((v >> 2) & 7);
        out0[i & 15] = w ^ (v << 1);
    }
}
int main() {
    fa(400);
    fb(50);
    return out0[3];
}
`

// assertDedupEquivalent checks the dedup contract: selections with the
// memo on are bit-identical to the memo-off reference modulo the node
// renaming — which the drivers resolve back to instruction positions, so
// even InstrIndexes must match exactly. IdentCalls and Stats are NOT
// compared: a dedup hit deliberately consumes no identification call and
// no search work (that is the point).
func assertDedupEquivalent(t *testing.T, label string, want, got SelectionResult) {
	t.Helper()
	if got.TotalMerit != want.TotalMerit {
		t.Fatalf("%s: total merit %d, want %d", label, got.TotalMerit, want.TotalMerit)
	}
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", label, got.Status, want.Status)
	}
	if len(got.Instructions) != len(want.Instructions) {
		t.Fatalf("%s: %d instructions, want %d", label, len(got.Instructions), len(want.Instructions))
	}
	for i := range want.Instructions {
		a, b := want.Instructions[i], got.Instructions[i]
		if a.Fn.Name != b.Fn.Name || a.Block.Name != b.Block.Name || a.Est != b.Est {
			t.Fatalf("%s: instruction %d differs: %s/%s %v vs %s/%s %v",
				label, i, b.Fn.Name, b.Block.Name, b.Est, a.Fn.Name, a.Block.Name, a.Est)
		}
		if len(a.InstrIndexes) != len(b.InstrIndexes) {
			t.Fatalf("%s: instruction %d indexes %v, want %v", label, i, b.InstrIndexes, a.InstrIndexes)
		}
		for j := range a.InstrIndexes {
			if a.InstrIndexes[j] != b.InstrIndexes[j] {
				t.Fatalf("%s: instruction %d indexes %v, want %v", label, i, b.InstrIndexes, a.InstrIndexes)
			}
		}
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%s: %d block statuses, want %d", label, len(got.Blocks), len(want.Blocks))
	}
	for i := range want.Blocks {
		a, b := want.Blocks[i], got.Blocks[i]
		if a.Fn != b.Fn || a.Block != b.Block || a.Status != b.Status {
			t.Fatalf("%s: block status %d: %s/%s %v, want %s/%s %v",
				label, i, b.Fn, b.Block, b.Status, a.Fn, a.Block, a.Status)
		}
	}
}

// renamedCopies compiles progen seed's program copies times and merges
// the copies into one module, renaming each copy's functions, so every
// block recurs copies times under different function names: the shape
// the dedup memo exists for. Copies of one source share identical
// globals, so the module is consistent; it is identified over, never
// run, so every block weighs 1.
func renamedCopies(t *testing.T, seed int64, copies int) *ir.Module {
	t.Helper()
	src := progen.Generate(progen.Config{Seed: seed}).Source
	var merged *ir.Module
	for c := 0; c < copies; c++ {
		m, err := minic.Compile(src, minic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := passes.Run(m, passes.Options{}); err != nil {
			t.Fatal(err)
		}
		if c == 0 {
			merged = m
			continue
		}
		for _, f := range m.Funcs {
			f.Name = fmt.Sprintf("%s_r%d", f.Name, c)
			merged.Funcs = append(merged.Funcs, f)
		}
	}
	return merged
}

// TestDedupSelectionEquality is the dedup acceptance sweep: for both
// drivers, across worker counts, -dedup selections equal the
// -dedup=false reference. On the renamed copies of a progen program the
// memo must also fire.
func TestDedupSelectionEquality(t *testing.T) {
	sources := []struct {
		name string
		m    *ir.Module
		hits bool // the memo must adopt at least one search
	}{
		{"three", compileAndProfile(t, threeKernels), false},
		{"twin", compileAndProfile(t, twinKernels), false},
		{"copies", renamedCopies(t, 11, 3), true},
	}
	workerCounts := []int{0, 1, 4, 8}
	if testing.Short() {
		workerCounts = []int{0, 4}
	}
	for _, src := range sources {
		for _, method := range []string{"iterative", "optimal"} {
			run := func(cfg Config) SelectionResult {
				if method == "iterative" {
					return SelectIterative(src.m, 4, cfg)
				}
				return SelectOptimal(src.m, 4, cfg)
			}
			ref := run(Config{Nin: 2, Nout: 1})
			if ref.DedupHits != 0 || ref.SharedInstructions != nil {
				t.Fatalf("%s/%s: dedup-off reference reported dedup work", src.name, method)
			}
			for _, nw := range workerCounts {
				got := run(Config{Nin: 2, Nout: 1, Dedup: true, Workers: nw})
				assertDedupEquivalent(t, src.name+"/"+method, ref, got)
				if src.hits && got.DedupHits == 0 {
					t.Fatalf("%s/%s/workers=%d: no dedup hits on renamed copies", src.name, method, nw)
				}
			}
		}
	}
}

// TestDedupTwinFunctions: on the twin module the memo must actually fire —
// dedup hits are reported, the metrics counters move, and the selection
// groups the twins' instructions as shareable datapaths.
func TestDedupTwinFunctions(t *testing.T) {
	m := compileAndProfile(t, twinKernels)
	met := obs.NewMetrics(obs.NewRegistry())
	cfg := Config{Nin: 2, Nout: 1, Dedup: true, Probe: &obs.Probe{Met: met}}
	sel := SelectIterative(m, 4, cfg)
	if sel.DedupHits == 0 {
		t.Fatalf("no dedup hits on a module with twin functions")
	}
	if met.DedupHits.Value() == 0 {
		t.Fatalf("sched_dedup_hits_total did not move")
	}
	// At least one group must span both twins — the same datapath
	// selected in fa and in fb.
	crossFn := false
	for _, sh := range sel.SharedInstructions {
		fns := map[string]bool{}
		for _, mi := range sh.Members {
			fns[sel.Instructions[mi].Fn.Name] = true
		}
		if sh.Count >= 2 && len(fns) >= 2 {
			crossFn = true
		}
	}
	if !crossFn {
		t.Fatalf("no cross-function shared instruction group: %+v", sel.SharedInstructions)
	}
}

// TestDedupCacheSharesAcrossCalls: two selections through one DedupCache
// share one memo, so the second adopts what the first searched — both
// when the calls pass one explicit model and when they leave Model nil
// (every nil-Model call must resolve to the same default instance, or
// the cache would grow one never-reused memo per call).
func TestDedupCacheSharesAcrossCalls(t *testing.T) {
	m := compileAndProfile(t, twinKernels)
	for _, tc := range []struct {
		name  string
		model *latency.Model
	}{{"nil-model", nil}, {"shared-model", latency.Default()}} {
		cache := NewDedupCache()
		cfg := Config{Nin: 2, Nout: 1, Model: tc.model, Dedup: true, DedupCache: cache}
		first := SelectIterative(m, 4, cfg)
		second := SelectIterative(m, 4, cfg)
		if len(cache.memos) != 1 {
			t.Errorf("%s: %d memos after two calls at one constraint point, want 1", tc.name, len(cache.memos))
		}
		if second.DedupHits <= first.DedupHits {
			t.Errorf("%s: dedup hits %d then %d; the second call must adopt the first's searches",
				tc.name, first.DedupHits, second.DedupHits)
		}
		assertDedupEquivalent(t, tc.name, first, second)
	}
}
