// Design-space exploration: sweep the register-port constraints
// (Nin × Nout) for one benchmark and print the estimated speedup and
// total datapath area of each point — the trade-off a specialised
// processor designer navigates (§2 of the paper).
//
//	go run ./examples/designspace [kernel]
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"isex/internal/core"
	"isex/internal/dse"
	"isex/internal/latency"
	"isex/internal/report"
	"isex/internal/sim"
	"isex/internal/workload"
)

func main() {
	name := "adpcmencode"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	k := workload.ByName(name)
	if k == nil {
		var names []string
		for _, k := range workload.All() {
			names = append(names, k.Name)
		}
		log.Fatalf("unknown kernel %q (try: %s)", name, strings.Join(names, " "))
	}
	model := latency.Default()
	m, err := k.Prepare()
	if err != nil {
		log.Fatal(err)
	}
	base := sim.FromProfile(m, model).Cycles // the profiling run's cycles
	fmt.Printf("%s: baseline %d cycles\n\n", name, base)

	const ninstr = 8
	t := &report.Table{
		Title:  fmt.Sprintf("design space of %s (up to %d instructions, budget-bounded search)", name, ninstr),
		Header: []string{"Nin", "Nout", "speedup", "instrs", "area (MACs)", "note"},
	}
	anyClamped := false
	for _, nout := range []int{1, 2, 3, 4} {
		for _, nin := range []int{2, 4, 6, 8} {
			if nin < nout {
				continue
			}
			cfg := core.Config{Nin: nin, Nout: nout, Model: model, MaxCuts: 1_000_000}
			sel := core.SelectIterative(m, ninstr, cfg)
			var area float64
			for _, s := range sel.Instructions {
				area += s.Est.Area
			}
			speedup, clamped := dse.EstSpeedup(base, sel.TotalMerit)
			sp := fmt.Sprintf("%.3f", speedup)
			if clamped {
				sp += "†"
				anyClamped = true
			}
			note := ""
			if sel.Degraded() {
				note = "lower bound"
			}
			t.AddRow(nin, nout, sp, len(sel.Instructions), fmt.Sprintf("%.3f", area), note)
		}
	}
	fmt.Print(t.String())
	if anyClamped {
		fmt.Println("(† estimated merit reached the baseline cycle count; speedup clamped)")
	}
	fmt.Println("\nreading guide: speedup saturates once the ports cover the kernel's")
	fmt.Println("natural cut shapes; area buys diminishing returns beyond that point.")
}
