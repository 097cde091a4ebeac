package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"isex/internal/dse"
	"isex/internal/report"
)

// sweepIO carries the observability knobs of a -sweep run: trace
// outputs, the live-metrics address, and the terminal progress surface.
// All purely observational — the deterministic report does not depend
// on any of them (the optional attribution section is additive and only
// present when tracing is on).
type sweepIO struct {
	tracePath   string
	traceChrome string
	metricsAddr string
	progress    bool
}

// runSweep is the -sweep entry: a design-space-exploration sweep over
// the (constraints × ninstr × kernel × target) grid, one selection per
// constraint group with the smaller Ninstr budgets as its prefixes
// (package dse). The table prints one section per (kernel, target) with
// the Pareto frontier; -sweep-json writes the deterministic
// machine-readable report (byte-identical across -workers values).
func runSweep(kernels, targets, constraints, ninstrs, mode, jsonPath string, budget int64, workers int, deadline time.Duration, sio sweepIO) error {
	opt := dse.DefaultOptions()
	if kernels != "" {
		opt.Benchmarks = splitList(kernels)
	}
	if targets != "" {
		opt.Targets = splitList(targets)
	}
	if constraints != "" {
		cs, err := parseConstraints(constraints)
		if err != nil {
			return err
		}
		opt.Constraints = cs
	}
	if ninstrs != "" {
		ns, err := parseInts(ninstrs)
		if err != nil {
			return fmt.Errorf("bad -ninstrs: %w", err)
		}
		opt.Ninstr = ns
	}
	switch mode {
	case "warm":
	case "cold":
		opt.Cold = true
	default:
		return fmt.Errorf("bad -sweep-mode %q (want warm or cold)", mode)
	}
	opt.Budget = budget
	if workers > 0 {
		opt.Workers = workers
	}

	// Observability: one recorder shared by all tasks when a trace is
	// wanted (race-clean: every event goes through its locked buffer),
	// a live progress tracker for -progress and /sweep/status, and the
	// metrics registry when an HTTP reader exists.
	var routes map[string]http.HandlerFunc
	if sio.progress || sio.metricsAddr != "" {
		pr := dse.NewProgress()
		opt.Progress = pr
		routes = map[string]http.HandlerFunc{"/sweep/status": func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(pr.Snapshot())
		}}
	}
	tel := startTelemetry(sio.tracePath, sio.traceChrome, sio.metricsAddr, false, routes)
	opt.Probe = tel.probe

	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	// The terminal progress surface redraws every two seconds while the
	// sweep runs; the final render lands after a successful sweep so
	// short sweeps still show their outcome once. A failed sweep (a
	// rejected grid, say) has no outcome to show.
	doneCh := make(chan struct{})
	renderDone := make(chan struct{})
	if sio.progress {
		go func() {
			defer close(renderDone)
			t := time.NewTicker(2 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					opt.Progress.Render(os.Stderr)
				case <-doneCh:
					return
				}
			}
		}()
	}

	rep, stats, err := dse.Sweep(ctx, opt)
	close(doneCh)
	if sio.progress {
		<-renderDone
		if err == nil {
			opt.Progress.Render(os.Stderr)
		}
	}
	if err != nil {
		return err
	}

	events, err := tel.finish()
	if err != nil {
		return err
	}
	if events != nil {
		dse.AttachAttribution(rep, events)
	}

	fmt.Printf("DSE sweep (%s mode): %v × %v, constraints %v, ninstr %v, budget %d\n",
		rep.Mode, opt.Benchmarks, opt.Targets, rep.Constraints, rep.Ninstr, rep.Budget)
	fmt.Printf("%.2fs wall; %d selections, %d identification calls\n",
		stats.Elapsed.Seconds(), stats.Selections, stats.IdentCalls)
	for _, b := range rep.Benchmarks {
		for _, tr := range b.Targets {
			t := &report.Table{
				Title:  fmt.Sprintf("%s on %s — baseline %d cycles", b.Benchmark, tr.Target, tr.BaselineCycles),
				Header: []string{"nin", "nout", "ninstr", "merit", "speedup", "area", "instrs", "status"},
			}
			for _, c := range tr.Cells {
				sp := fmt.Sprintf("%.3f", c.Speedup)
				if c.Clamped {
					sp += "†"
				}
				t.AddRow(c.Nin, c.Nout, c.Ninstr, c.Merit, sp,
					fmt.Sprintf("%.2f", c.Area), len(c.Instructions), c.Status)
			}
			fmt.Println()
			fmt.Print(t.String())
			fmt.Println("Pareto frontier (speedup ↑, area ↓, ninstr ↓):")
			for _, p := range tr.Pareto {
				mark := ""
				if p.Clamped {
					mark = "†"
				}
				fmt.Printf("  area %8.2f  speedup %7.3f%s  ninstr %2d  at %d/%d ports\n",
					p.Area, p.Speedup, mark, p.Ninstr, p.Nin, p.Nout)
			}
		}
	}

	if jsonPath != "" {
		data, err := rep.Bytes()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// parseConstraints reads a "nin/nout,nin/nout" list (e.g. "2/1,4/2").
func parseConstraints(s string) ([][2]int, error) {
	var out [][2]int
	for _, item := range splitList(s) {
		parts := strings.Split(item, "/")
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -constraints entry %q (want nin/nout, e.g. 4/2)", item)
		}
		nin, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("bad -constraints entry %q: %v", item, err)
		}
		nout, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("bad -constraints entry %q: %v", item, err)
		}
		out = append(out, [2]int{nin, nout})
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, item := range splitList(s) {
		v, err := strconv.Atoi(item)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
