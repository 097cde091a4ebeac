// Package latency provides the timing and area model of §7 of the paper.
//
// Software latencies are execution-stage cycle counts on the single-issue
// baseline processor. Hardware delays are combinational latencies of the
// corresponding operators synthesized on a 0.18 µm CMOS process,
// normalized to the delay of a 32-bit multiply-accumulate (MAC = 1.0),
// exactly as the paper normalizes. Area is likewise normalized to one MAC.
//
// The absolute numbers are a substitution for the authors' proprietary
// synthesis results; only the *ratios* influence which cuts are chosen,
// and the experiment harness includes a perturbation test showing the
// result shapes are stable under ±30% noise on these tables.
package latency

import (
	"fmt"
	"math"

	"isex/internal/ir"
)

// opSlots covers every ir.Op value: ir.Op is a uint8, so any op indexes
// the tables in range and the lookup needs no bounds check.
const opSlots = math.MaxUint8 + 1

// Model holds per-opcode software cycles, hardware delay and area. The
// tables are arrays indexed by ir.Op, because the §6 searches and the
// simulator read them once per visited cut or executed instruction; ops
// outside the §7 table cost 0.
type Model struct {
	sw   [opSlots]int
	hw   [opSlots]float64
	area [opSlots]float64
}

// Default returns the standard model used by all experiments.
func Default() *Model {
	m := &Model{}
	type row struct {
		ops  []ir.Op
		sw   int
		hw   float64
		area float64
	}
	rows := []row{
		// Constants are immediates: free in software and hardwired in hardware.
		{[]ir.Op{ir.OpConst}, 0, 0, 0},
		// Copies disappear under register renaming in hardware.
		{[]ir.Op{ir.OpCopy}, 1, 0, 0},
		// 32-bit carry-lookahead add/sub: ~30% of a MAC's delay.
		{[]ir.Op{ir.OpAdd, ir.OpSub, ir.OpNeg}, 1, 0.30, 0.04},
		{[]ir.Op{ir.OpMin, ir.OpMax, ir.OpAbs}, 1, 0.33, 0.06},
		// Bitwise logic is nearly free.
		{[]ir.Op{ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot}, 1, 0.03, 0.01},
		// Full barrel shifter.
		{[]ir.Op{ir.OpShl, ir.OpAShr, ir.OpLShr}, 1, 0.20, 0.10},
		// Comparators are subtracter-based.
		{[]ir.Op{ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
			ir.OpULt, ir.OpULe, ir.OpUGt, ir.OpUGe}, 1, 0.26, 0.03},
		// 2:1 mux (the SEL node produced by if-conversion).
		{[]ir.Op{ir.OpSelect}, 1, 0.06, 0.03},
		// Sign/zero extension is wiring.
		{[]ir.Op{ir.OpSExt8, ir.OpSExt16, ir.OpZExt8, ir.OpZExt16}, 1, 0.01, 0.001},
		// 32-bit multiplier dominates a MAC.
		{[]ir.Op{ir.OpMul}, 2, 0.90, 0.72},
		// Iterative divider; rarely profitable inside a cut.
		{[]ir.Op{ir.OpDiv, ir.OpRem}, 16, 4.0, 1.9},
		// Barrier operations: software costs for the simulator; they can
		// never be part of a cut, so hw/area are irrelevant (kept at 0).
		{[]ir.Op{ir.OpLoad}, 2, 0, 0},
		{[]ir.Op{ir.OpStore}, 1, 0, 0},
		{[]ir.Op{ir.OpGlobal}, 1, 0, 0},
		{[]ir.Op{ir.OpAlloca}, 1, 0, 0},
		{[]ir.Op{ir.OpCall}, 4, 0, 0}, // fixed call overhead
	}
	for _, r := range rows {
		for _, op := range r.ops {
			m.sw[op] = r.sw
			m.hw[op] = r.hw
			m.area[op] = r.area
		}
	}
	return m
}

// SW returns the software execution-stage latency of op in cycles.
func (m *Model) SW(op ir.Op) int { return m.sw[op] }

// HW returns the normalized hardware delay of op (MAC = 1.0).
func (m *Model) HW(op ir.Op) float64 { return m.hw[op] }

// Area returns the normalized silicon area of op (MAC = 1.0).
func (m *Model) Area(op ir.Op) float64 { return m.area[op] }

// CyclesOf converts an accumulated hardware critical path into the cycle
// count of the resulting special instruction: the ceiling of the delay sum,
// and at least one cycle for a non-empty datapath (§7).
func CyclesOf(delay float64) int {
	if delay <= 0 {
		return 0
	}
	c := int(math.Ceil(delay - 1e-9))
	if c < 1 {
		c = 1
	}
	return c
}

// Perturbed returns a copy of the model with every hardware delay and
// area scaled by a deterministic pseudo-random factor in [1-eps, 1+eps].
// It is used by robustness tests: the paper's conclusions should not
// depend on the exact synthesis numbers.
func (m *Model) Perturbed(seed int64, eps float64) *Model {
	if eps < 0 || eps >= 1 {
		panic(fmt.Sprintf("latency: bad perturbation %v", eps))
	}
	// The factor is a pure function of (seed, op, salt); unlisted ops
	// stay at 0 because 0 scales to 0.
	factor := func(op ir.Op, salt uint64) float64 {
		state := uint64(seed)*2862933555777941757 + uint64(op)*0x9E3779B97F4A7C15 + salt
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		u := float64(state%1_000_000) / 1_000_000
		return 1 + eps*(2*u-1)
	}
	return m.derive(func(op ir.Op, hw float64) float64 {
		return hw * factor(op, 1)
	}, func(op ir.Op, area float64) float64 {
		return area * factor(op, 2)
	})
}
