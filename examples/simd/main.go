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
	"context"
	"fmt"
	"log"

	"isex/internal/core"
	"isex/internal/pipeline"
	"isex/internal/workload"
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
	var lanes [2][]int32
	for l := range lanes {
		lanes[l] = make([]int32, 128)
		for i := range lanes[l] {
			lanes[l][i] = int32((i*31+l*17)%4000 - 2000)
		}
	}
	k := &workload.Kernel{Name: "simd", Source: src, Entry: "mix", Args: []int32{128, 90, 110},
		Inputs: map[string][]int32{"left": lanes[0], "right": lanes[1]}}

	// One instruction, one write port: only one lane fits. With four read
	// and two write ports, BOTH lanes fit as one disconnected cut — a
	// SIMD instruction found automatically.
	for _, c := range []struct {
		nin, nout int
		budget    int64
	}{{2, 1, 2_000_000}, {4, 2, 4_000_000}} {
		rep, err := pipeline.Run(context.Background(), k, pipeline.Options{
			Ninstr: 1, Config: core.Config{Nin: c.nin, Nout: c.nout, MaxCuts: c.budget}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("with (Nin=%d, Nout=%d), one instruction covers:\n", c.nin, c.nout)
		for _, s := range rep.Selection.Instructions {
			fmt.Printf("  %d ops, in=%d out=%d, %d weakly connected component(s), saves %d cycles x %d\n",
				s.Est.Size, s.Est.In, s.Est.Out, s.Est.Components, s.Est.Saved, s.Est.Freq)
		}
		fmt.Printf("  cycles: %d -> %d, speedup %.3fx; outputs verified bit-identical\n",
			rep.BaseCycles, rep.PatchedCycles, float64(rep.BaseCycles)/float64(rep.PatchedCycles))
	}
}
