package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"isex/internal/dse"
	"isex/internal/experiments"
)

// runSweep is the -sweep entry: a design-space-exploration sweep over
// the (constraints × ninstr × kernel × target) grid, one selection per
// constraint group with the smaller Ninstr budgets as its prefixes
// (package dse). The table (experiments.DSETable, as isebench prints it)
// has one section per (kernel, target) with the Pareto frontier;
// -sweep-json writes the deterministic machine-readable report
// (byte-identical across -workers values). The tasks share tel's
// recorder, when a trace is wanted: every event goes through its locked
// buffer, which keeps the sharing race-clean.
func runSweep(kernels, targets, constraints, ninstrs, mode, jsonPath string, budget int64, workers int, deadline time.Duration, tel *telemetry) error {
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
	opt.Probe = tel.probe

	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	rep, stats, err := dse.Sweep(ctx, opt)
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

	fmt.Print(experiments.DSETable(rep, stats))

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
