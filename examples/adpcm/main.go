// The Fig. 3 walkthrough: identify the motivational cuts of the paper on
// the real ADPCM decoder — M1 (the approximate 16×4-bit multiplication)
// at two read ports and one write port, M2 (plus accumulate and
// saturate) at three, and the disconnected M2+M3 at (4,2) — then emit the
// M1 datapath as Verilog.
//
//	go run ./examples/adpcm
package main

import (
	"context"
	"fmt"
	"log"

	"isex/internal/core"
	"isex/internal/dfg"
	"isex/internal/ir"
	"isex/internal/pipeline"
	"isex/internal/workload"
)

func main() {
	k := workload.AdpcmDecode()
	m, err := k.Prepare() // compile + if-convert + profile
	if err != nil {
		log.Fatal(err)
	}

	// Locate the decoder's hottest block (the if-converted loop body —
	// the dataflow graph of Fig. 3).
	f := m.Func("adpcm_decoder")
	var hot *ir.Block
	for _, b := range f.Blocks {
		if len(b.Instrs) > 10 && (hot == nil || b.Freq > hot.Freq) {
			hot = b
		}
	}
	g := dfg.Build(f, hot, ir.Liveness(f))
	fmt.Printf("hot block %s: %d operations, executed %d times\n\n",
		hot.Name, g.NumOps(), hot.Freq)

	budget := int64(3_000_000)
	for _, c := range []struct {
		nin, nout int
		label     string
	}{
		{2, 1, "M1: the approximate 16x4-bit multiplication"},
		{3, 1, "M2: M1 + accumulation and saturation"},
		{4, 2, "M2+M3: disconnected, multi-output"},
	} {
		res := core.FindBestCut(g, core.Config{Nin: c.nin, Nout: c.nout, MaxCuts: budget})
		if !res.Found {
			log.Fatalf("(%d,%d): no cut found", c.nin, c.nout)
		}
		note := ""
		if res.Stats.Aborted {
			note = " [budget hit: lower bound]"
		}
		fmt.Printf("(%d in, %d out) -> %s%s\n", c.nin, c.nout, c.label, note)
		fmt.Printf("   %d operations, %d component(s), %d cycle datapath, saves %d cycles/iteration\n",
			res.Est.Size, res.Est.Components, res.Est.HWCycles, res.Est.Saved)
	}

	// Select and patch M1 (the pipeline checks that the patched decoder
	// computes the original outputs), then print its Verilog.
	rep, err := pipeline.Run(context.Background(), k, pipeline.Options{
		Ninstr: 1, Config: core.Config{Nin: 2, Nout: 1, MaxCuts: budget}})
	if err != nil {
		log.Fatal(err)
	}
	if len(rep.Verilog) == 0 {
		log.Fatal("no custom instruction patched in")
	}
	fmt.Printf("\nVerilog for the selected datapath:\n\n%s", rep.Verilog[0])
}
