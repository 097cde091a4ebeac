package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"

	"isex/internal/core"
	"isex/internal/dse"
	"isex/internal/latency"
	"isex/internal/progen"
	"isex/internal/workload"
)

// workloads names the benchmark's workloads, each chosen to load a
// different part of the pipeline:
//
//   - small-programs: whole pipeline with light search, so the front end,
//     DFG build, interpreter, simulator, patcher and emitter carry the time;
//   - kernels-iterative: loose ports where the single-cut branch-and-bound
//     is nearly all the time and a third of the jobs stop at the cut budget;
//   - kernels-optimal: the §6.2 multiple-cut search and its driver, every
//     job terminating;
//   - dse-sweep: the design-space sweep, the only user of the seed book,
//     the shared dedup cache, Ninstr prefix sharing and the CPU pool.
var workloads = []string{"small-programs", "kernels-iterative", "kernels-optimal", "dse-sweep"}

// progenPrograms is how many generated programs small-programs adds to
// the kernel suite: progen seeds 1 to 48. The set is fixed rather than
// drawn from the run's seed because progen's cost is heavy-tailed — one
// program in a few hundred takes seconds to select — so a drawn set made
// the workload's cost vary thirtyfold between seeds.
const progenPrograms = 48

// setup is a workload's input: a job list, or the sweep's options.
type setup struct {
	jobs  []*jobSpec
	sweep *dse.Options
}

func kernelJob(k *workload.Kernel, nin, nout int, optimal bool) *jobSpec {
	return &jobSpec{name: k.Name, src: k.Source, unroll: k.Unroll, entry: k.Entry,
		args: k.Args, inputs: k.Inputs, outputs: k.Outputs, nin: nin, nout: nout, optimal: optimal}
}

// makeSetup builds a workload's inputs. The run's seed only orders the
// passes (see bench), so every seed measures the same work.
func makeSetup(name string) (*setup, error) {
	s := &setup{}
	switch name {
	case "small-programs":
		for _, k := range workload.All() {
			s.jobs = append(s.jobs, kernelJob(k, 2, 1, false))
		}
		for pseed := int64(1); pseed <= progenPrograms; pseed++ {
			p := progen.Generate(progen.Config{Seed: pseed})
			s.jobs = append(s.jobs, &jobSpec{name: fmt.Sprintf("progen-%d", pseed), src: p.Source,
				entry: p.Entry, outputs: p.Globals, nin: 2, nout: 1})
		}
	case "kernels-iterative":
		for _, ports := range [][2]int{{4, 3}, {8, 4}} {
			for _, k := range workload.All() {
				s.jobs = append(s.jobs, kernelJob(k, ports[0], ports[1], false))
			}
		}
	case "kernels-optimal":
		for _, ports := range [][2]int{{2, 1}, {4, 2}, {4, 3}, {8, 4}} {
			for _, kn := range []string{"gsmlpc", "fir", "sad", "vlc"} {
				k := workload.ByName(kn)
				if k == nil {
					return nil, fmt.Errorf("no kernel %q", kn)
				}
				s.jobs = append(s.jobs, kernelJob(k, ports[0], ports[1], true))
			}
		}
	case "dse-sweep":
		opt := dse.DefaultOptions()
		opt.Workers = runtime.GOMAXPROCS(0)
		s.sweep = &opt
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	return s, nil
}

// sweepResult is one repetition of the dse-sweep job.
type sweepResult struct {
	err    error
	digest [sha256.Size]byte
	report *dse.Report
	stats  *dse.Stats
}

func runSweep(ctx context.Context, opt *dse.Options, t *tracer, parent int) (r sweepResult) {
	sp := t.begin("dse", parent)
	rep, st, err := dse.Sweep(ctx, *opt)
	t.end(sp)
	if err != nil {
		r.err = fmt.Errorf("sweep: %w", err)
		return r
	}
	b, err := rep.Bytes()
	if err != nil {
		r.err = fmt.Errorf("sweep report: %w", err)
		return r
	}
	r.digest, r.report, r.stats = sha256.Sum256(b), rep, st
	return r
}

// verifyJobs turns a sweep report into pipeline jobs: one per benchmark,
// target and constraint point, at the pipeline's ninstr. Running them
// checks the sweep's cells against a cold serial selection of the same
// point and measures what its selections are worth once patched and
// simulated. want holds the merit each job must reproduce, or -1 where
// the cell's search did not finish: only exhaustive answers are
// promised to match a cold search.
func verifyJobs(rep *dse.Report) (jobs []*jobSpec, want []int64, err error) {
	for _, b := range rep.Benchmarks {
		k := workload.ByName(b.Benchmark)
		if k == nil {
			return nil, nil, fmt.Errorf("sweep names unknown kernel %q", b.Benchmark)
		}
		for _, tr := range b.Targets {
			target, err := latency.TargetByName(tr.Target)
			if err != nil {
				return nil, nil, err
			}
			for _, c := range tr.Cells {
				if c.Ninstr != ninstr {
					continue
				}
				j := kernelJob(k, c.Nin, c.Nout, false)
				j.name = fmt.Sprintf("%s/%s", k.Name, tr.Target)
				j.model = target.Model()
				jobs = append(jobs, j)
				if c.Status == core.Exhaustive.String() {
					want = append(want, c.Merit)
				} else {
					want = append(want, -1)
				}
			}
		}
	}
	if len(jobs) == 0 {
		return nil, nil, fmt.Errorf("sweep report has no cells at ninstr %d", ninstr)
	}
	return jobs, want, nil
}
