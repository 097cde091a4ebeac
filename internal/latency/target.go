package latency

import (
	"fmt"
	"sort"

	"isex/internal/ir"
)

// Target is a named microarchitecture profile: a recipe that produces a
// latency/area Model for one hardware target. The paper evaluates a
// single target (the §7 tables); a design-space exploration wants the
// frontier across several — the ByoRISC DSE tools and the
// microarchitecture-aware RISC-V custom-instruction work both sweep
// targets the same way. Profiles are deterministic pure functions of the
// Default() tables, so two Model() calls return structurally identical
// models (the instances are distinct; cache the pointer when identity
// matters).
type Target struct {
	// Name is the stable identifier used on CLI axes and in reports.
	Name string
	// Description is a one-line human summary for -list output and docs.
	Description string
	build       func() *Model
}

// Model builds the target's latency/area model.
func (t Target) Model() *Model { return t.build() }

// targets is the registry, in presentation order.
var targets = []Target{
	{
		Name:        "paper",
		Description: "the §7 tables unchanged: single-cycle AFU issue, delays normalized to a 32-bit MAC",
		build:       Default,
	},
	{
		Name: "pipelined",
		Description: "pipelined AFU: registered operator rows shorten the perceived " +
			"combinational path (hw ×0.65) at the price of pipeline registers (area ×1.15)",
		build: func() *Model {
			return Default().derive(func(op ir.Op, hw float64) float64 {
				return hw * 0.65
			}, func(op ir.Op, area float64) float64 {
				return area * 1.15
			})
		},
	},
	{
		Name: "fwdcost",
		Description: "forwarding-cost variant: operand-bypass muxing in front of every " +
			"operator row adds a fixed delay (+0.08) and mux area (+0.01) per op",
		build: func() *Model {
			return Default().derive(func(op ir.Op, hw float64) float64 {
				if hw == 0 {
					return hw // barrier/free ops never join a cut
				}
				return hw + 0.08
			}, func(op ir.Op, area float64) float64 {
				if area == 0 {
					return area
				}
				return area + 0.01
			})
		},
	},
}

// Targets returns the registered profiles in presentation order.
func Targets() []Target { return append([]Target(nil), targets...) }

// TargetNames returns the registered profile names in presentation order.
func TargetNames() []string {
	names := make([]string, len(targets))
	for i, t := range targets {
		names[i] = t.Name
	}
	return names
}

// TargetByName resolves a profile; the error lists the valid names.
func TargetByName(name string) (Target, error) {
	for _, t := range targets {
		if t.Name == name {
			return t, nil
		}
	}
	known := TargetNames()
	sort.Strings(known)
	return Target{}, fmt.Errorf("latency: unknown target %q (have %v)", name, known)
}

// derive returns a copy of m with every hardware delay and area mapped
// through the given transforms (software latencies are a property of the
// baseline processor, not of the AFU, and stay fixed). The transforms
// are pure per-op functions and see every op slot, so each must map a
// zero delay or area to zero: ops outside the §7 table cost nothing on
// every target.
func (m *Model) derive(hw func(ir.Op, float64) float64, area func(ir.Op, float64) float64) *Model {
	out := &Model{sw: m.sw}
	for i := range opSlots {
		op := ir.Op(i)
		out.hw[op] = hw(op, m.hw[op])
		out.area[op] = area(op, m.area[op])
	}
	return out
}
