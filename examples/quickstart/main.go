// Quickstart: compile a small MiniC kernel, identify instruction-set
// extensions under (Nin=2, Nout=1), patch them in, and measure the
// speedup on the cycle model — one pipeline.Run.
//
//	go run ./examples/quickstart
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
// A saturating multiply-accumulate kernel.
int acc[64];
int x[64];

void kernel(int n, int gain) {
    int i;
    for (i = 0; i < n; i++) {
        int p = (x[i] * gain) >> 8;
        int s = acc[i] + p;
        if (s > 32767) s = 32767;
        if (s < -32768) s = -32768;
        acc[i] = s;
    }
}
`

func main() {
	inputs := make([]int32, 64)
	for i := range inputs {
		inputs[i] = int32(i*37%200 - 100)
	}
	k := &workload.Kernel{Name: "quickstart", Source: src, Entry: "kernel",
		Args: []int32{64, 3}, Inputs: map[string][]int32{"x": inputs}}

	// Compile and preprocess (if-conversion turns the two clamps into SEL
	// operations, producing one large dataflow block), profile (block
	// execution counts weight the merit function), identify up to 4
	// custom instructions with 2 read ports and 1 write port (the
	// tightest constraint the paper considers), patch them in, and run
	// the patched program again: it must compute what the original did.
	rep, err := pipeline.Run(context.Background(), k, pipeline.Options{
		Ninstr: 4, Config: core.Config{Nin: 2, Nout: 1}})
	if err != nil {
		log.Fatal(err)
	}
	sel := rep.Selection
	fmt.Printf("identified %d instruction(s), estimated gain %d cycles:\n",
		len(sel.Instructions), sel.TotalMerit)
	for i, s := range sel.Instructions {
		fmt.Printf("  #%d in %s/%s: %d ops, %d->%d ports, saves %d cycles x %d executions\n",
			i, s.Fn.Name, s.Block.Name, s.Est.Size, s.Est.In, s.Est.Out, s.Est.Saved, s.Est.Freq)
	}
	// Both runs are priced on the single-issue cycle model.
	fmt.Printf("cycles: %d -> %d, measured speedup %.3fx\n",
		rep.BaseCycles, rep.PatchedCycles, float64(rep.BaseCycles)/float64(rep.PatchedCycles))
	fmt.Println("outputs verified bit-identical")
}
