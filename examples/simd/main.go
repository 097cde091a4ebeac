// Disconnected cuts as SIMD: the paper (§4) observes that with enough
// register ports a single custom instruction can contain *disconnected*
// subgraphs — de facto SIMD lanes. This example processes two independent
// audio channels; with (Nin=4, Nout=2) the identifier packs both lanes'
// saturation chains into ONE instruction, which no single-output or
// connected-only method can express.
//
//	go run ./examples/simd
package main

import (
	"fmt"
	"log"

	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/minic"
	"isex/internal/passes"
	"isex/internal/sim"
)

const src = `
int left[128];
int right[128];
int outl[128];
int outr[128];

void mix(int n, int gl, int gr) {
    int i;
    for (i = 0; i < n; i++) {
        // Lane 0.
        int a = (left[i] * gl) >> 7;
        if (a > 32767) a = 32767;
        if (a < -32768) a = -32768;
        // Lane 1 (independent of lane 0).
        int b = (right[i] * gr) >> 7;
        if (b > 32767) b = 32767;
        if (b < -32768) b = -32768;
        outl[i] = a;
        outr[i] = b;
    }
}
`

func main() {
	build := func() *ir.Module {
		m, err := minic.Compile(src, minic.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if err := passes.Run(m, passes.Options{}); err != nil {
			log.Fatal(err)
		}
		return m
	}
	m := build()

	var lanes [2][]int32
	for l := range lanes {
		lanes[l] = make([]int32, 128)
		for i := range lanes[l] {
			lanes[l][i] = int32((i*31+l*17)%4000 - 2000)
		}
	}
	setup := func(env *interp.Env) error {
		if err := env.SetGlobal("left", lanes[0]); err != nil {
			return err
		}
		return env.SetGlobal("right", lanes[1])
	}

	env := interp.NewEnv(m)
	env.Profile = true
	if err := setup(env); err != nil {
		log.Fatal(err)
	}
	if _, _, err := env.Call("mix", 128, 90, 110); err != nil {
		log.Fatal(err)
	}

	// One instruction, one write port: only one lane fits.
	one := core.SelectIterative(m, 1, core.Config{Nin: 2, Nout: 1, MaxCuts: 2_000_000})
	fmt.Println("with (Nin=2, Nout=1), one instruction covers:")
	describe(one)

	// One instruction, four read and two write ports: BOTH lanes fit as a
	// disconnected cut — a SIMD instruction found automatically.
	two := core.SelectIterative(m, 1, core.Config{Nin: 4, Nout: 2, MaxCuts: 4_000_000})
	fmt.Println("with (Nin=4, Nout=2), one instruction covers:")
	describe(two)

	if len(two.Instructions) == 1 {
		s := two.Instructions[0]
		g := dfg.Build(s.Fn, s.Block, ir.Liveness(s.Fn))
		var cut dfg.Cut
		for _, id := range g.OpOrder {
			for _, idx := range s.InstrIndexes {
				if g.Nodes[id].InstrIndex == idx {
					cut = append(cut, id)
				}
			}
		}
		fmt.Printf("the (4,2) cut has %d weakly connected component(s)\n", g.Components(cut))
	}

	// Patch the SIMD instruction in and verify speedup + correctness.
	baseline := build()
	if _, _, err := core.ApplySelection(m, two.Instructions, nil); err != nil {
		log.Fatal(err)
	}
	interp.ClearProfile(m)
	runner := &sim.Runner{Setup: setup}
	cmp, err := runner.Compare(baseline, m, "mix", 128, 90, 110)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cycles: %d -> %d, speedup %.3fx\n", cmp.Base.Cycles, cmp.Patched.Cycles, cmp.Speedup())

	e1, e2 := interp.NewEnv(baseline), interp.NewEnv(m)
	for _, e := range []*interp.Env{e1, e2} {
		if err := setup(e); err != nil {
			log.Fatal(err)
		}
		if _, _, err := e.Call("mix", 128, 90, 110); err != nil {
			log.Fatal(err)
		}
	}
	for _, gname := range []string{"outl", "outr"} {
		s1, _ := e1.GlobalSlice(gname)
		s2, _ := e2.GlobalSlice(gname)
		for i := range s1 {
			if s1[i] != s2[i] {
				log.Fatalf("%s[%d] diverges", gname, i)
			}
		}
	}
	fmt.Println("outputs verified bit-identical")
}

func describe(sel core.SelectionResult) {
	for _, s := range sel.Instructions {
		fmt.Printf("  %d ops, in=%d out=%d, %d component(s), saves %d cycles x %d\n",
			s.Est.Size, s.Est.In, s.Est.Out, s.Est.Components, s.Est.Saved, s.Est.Freq)
	}
}
