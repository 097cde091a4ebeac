package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"isex/internal/dfg"
	"isex/internal/greedy"
	"isex/internal/ir"
	"isex/internal/minic"
	"isex/internal/passes"
	"isex/internal/progen"
)

// frontEndIRDigest is the SHA-256 of the optimized IR of every program
// in frontEndCorpus. The front end and the passes are rewritten for
// speed from time to time, and each rewrite must leave the IR
// byte-for-byte identical, so this constant moves only on purpose: a
// change that moves it updates it here and says why in CHANGES.md.
const frontEndIRDigest = "e54599214dfc7ca4725391e717dacf62a6efe3aa8addfd1575c6e6d56f36122a"

// frontEndProgram is one input of the digest: a source and its unroll
// limit.
type frontEndProgram struct {
	name   string
	src    string
	unroll int
}

// frontEndCorpus returns 324 programs: the 12 kernels, each at its own
// Unroll and at 0, and progen seeds 1 to 300.
func frontEndCorpus() []frontEndProgram {
	var progs []frontEndProgram
	for _, k := range All() {
		progs = append(progs,
			frontEndProgram{k.Name, k.Source, k.Unroll},
			frontEndProgram{k.Name + "/unroll=0", k.Source, 0})
	}
	return append(progs, progenPrograms(300)...)
}

// progenPrograms returns progen seeds 1 to n.
func progenPrograms(n int64) []frontEndProgram {
	var progs []frontEndProgram
	for seed := int64(1); seed <= n; seed++ {
		p := progen.Generate(progen.Config{Seed: seed})
		progs = append(progs, frontEndProgram{fmt.Sprintf("progen-%d", seed), p.Source, 0})
	}
	return progs
}

// compileAndOptimize runs the front end and the standard pass pipeline.
func compileAndOptimize(t testing.TB, p frontEndProgram) *ir.Module {
	t.Helper()
	m, err := minic.Compile(p.src, minic.Options{UnrollLimit: p.unroll})
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	if err := passes.Run(m, passes.Options{}); err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	return m
}

// TestFrontEndIRDigest pins the IR that minic.Compile plus passes.Run
// produce over frontEndCorpus.
func TestFrontEndIRDigest(t *testing.T) {
	h := sha256.New()
	for _, p := range frontEndCorpus() {
		fmt.Fprintf(h, "== %s\n%s", p.name, compileAndOptimize(t, p).String())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != frontEndIRDigest {
		t.Errorf("front-end IR digest = %s, want %s: the optimized IR of at least one program changed",
			got, frontEndIRDigest)
	}
}

// graphDigest is the SHA-256 of every graph dfg.BuildAll makes over
// frontEndCorpus, and of each block's graph after one and two §6.3
// collapses. The graph builder is rewritten for speed from time to
// time, and each rewrite must leave every node, every edge list in its
// order and the search order unchanged, so this constant moves only on
// purpose: a change that moves it updates it here and says why in
// CHANGES.md.
const graphDigest = "30644195ad0f2809ae5122480d8ba471724c202c0e1dfc13e398b429b2e5442d"

// TestGraphDigest pins the G+ of every block of frontEndCorpus. Each
// block is collapsed twice, each time on its largest MaxMISO of two or
// more nodes, so the digest pins dfg.Collapse too. Every freshly built
// graph must also keep the invariant dfg.Build rests on (checkForward).
func TestGraphDigest(t *testing.T) {
	h := sha256.New()
	for _, p := range frontEndCorpus() {
		m := compileAndOptimize(t, p)
		graphs, err := dfg.BuildAll(m)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		fmt.Fprintf(h, "== %s\n", p.name)
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				g := graphs[b]
				if err := checkForward(g); err != nil {
					t.Fatalf("%s: %s/%s: %v", p.name, f.Name, b.Name, err)
				}
				for round := 0; ; round++ {
					fmt.Fprintf(h, "-- %s/%s round %d\n", f.Name, b.Name, round)
					hashGraph(h, g)
					var largest dfg.Cut
					for _, c := range greedy.MaxMISODecompose(g) {
						if len(c) > len(largest) {
							largest = c
						}
					}
					if round == 2 || len(largest) < 2 {
						break
					}
					if g, err = g.Collapse(largest, fmt.Sprintf("cut%d", round), round+1); err != nil {
						t.Fatalf("%s: %s/%s: %v", p.name, f.Name, b.Name, err)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != graphDigest {
		t.Errorf("graph digest = %s, want %s: the G+ of at least one block changed",
			got, graphDigest)
	}
}

// checkForward reports the first edge between operation nodes of a
// freshly built g that does not run forward in instruction order, or a
// search order other than the reverse instruction order. dfg.Build
// relies on the first, so it can record the second without a sort.
func checkForward(g *dfg.Graph) error {
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind != dfg.KindOp {
			continue
		}
		for _, succs := range [][]int{n.Succs, n.OrderSuccs} {
			for _, s := range succs {
				if m := &g.Nodes[s]; m.Kind == dfg.KindOp && m.InstrIndex <= n.InstrIndex {
					return fmt.Errorf("edge from instruction %d to instruction %d", n.InstrIndex, m.InstrIndex)
				}
			}
		}
	}
	if len(g.OpOrder) != len(g.Block.Instrs) {
		return fmt.Errorf("search order has %d nodes, the block %d instructions", len(g.OpOrder), len(g.Block.Instrs))
	}
	for rank, id := range g.OpOrder {
		if want := len(g.OpOrder) - 1 - rank; g.Nodes[id].InstrIndex != want {
			return fmt.Errorf("search rank %d is instruction %d, want %d", rank, g.Nodes[id].InstrIndex, want)
		}
	}
	return nil
}

// hashGraph writes g's search order and every node field but the
// back-pointers to the IR: ID, kind, op, instruction index, register,
// forbidden flag, name, super-node latency and members, and the data and
// order edge lists in their order.
func hashGraph(w io.Writer, g *dfg.Graph) {
	fmt.Fprintf(w, "order %v\n", g.OpOrder)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		fmt.Fprintf(w, "%d k=%d op=%d ix=%d r=%d f=%t %q lat=%d mem=%v p=%v s=%v ordp=%v ords=%v\n",
			n.ID, n.Kind, n.Op, n.InstrIndex, n.Reg, n.Forbidden, n.Name, n.SuperLatency, n.SuperMembers,
			n.Preds, n.Succs, n.OrderPreds, n.OrderSuccs)
	}
}

// TestFrontEndAllocs guards the passes' allocation count on the
// heaviest small-programs job, progen seed 5. Value numbering keyed by
// structs over slices, liveness over global names and DCE compacting in
// place bring it to 1,373; the bound leaves 25% headroom.
func TestFrontEndAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs = 5
	src := progen.Generate(progen.Config{Seed: 5}).Source
	mods := make([]*ir.Module, runs+1) // AllocsPerRun makes one warm-up call
	for i := range mods {
		m, err := minic.Compile(src, minic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mods[i] = m
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := passes.Run(mods[next], passes.Options{}); err != nil {
			t.Fatal(err)
		}
		next++
	})
	const bound = 1720
	if allocs > bound {
		t.Errorf("passes.Run on progen-5 made %.0f allocations, want at most %d", allocs, bound)
	}
}

// smallPrograms returns small-programs' 60 sources: the 12 kernels at
// their own Unroll and progen seeds 1 to 48.
func smallPrograms() []frontEndProgram {
	var progs []frontEndProgram
	for _, k := range All() {
		progs = append(progs, frontEndProgram{k.Name, k.Source, k.Unroll})
	}
	return append(progs, progenPrograms(48)...)
}

// BenchmarkFrontEnd compiles and optimizes small-programs' sources.
//
//	go test -run '^$' -bench FrontEnd -benchmem ./internal/workload
func BenchmarkFrontEnd(b *testing.B) {
	progs := smallPrograms()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			compileAndOptimize(b, p)
		}
	}
}

// BenchmarkGraphs builds every block's G+ (dfg.BuildAll) for
// small-programs' 60 optimized modules.
//
//	go test -run '^$' -bench Graphs -benchmem ./internal/workload
func BenchmarkGraphs(b *testing.B) {
	var mods []*ir.Module
	for _, p := range smallPrograms() {
		mods = append(mods, compileAndOptimize(b, p))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mods {
			if _, err := dfg.BuildAll(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}
