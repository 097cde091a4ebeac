package latency

import (
	"testing"

	"isex/internal/ir"
)

func TestDefaultCoversAllPureOps(t *testing.T) {
	m := Default()
	for _, op := range []ir.Op{
		ir.OpConst, ir.OpCopy, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpNeg, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot, ir.OpShl, ir.OpAShr,
		ir.OpLShr, ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpULt, ir.OpULe, ir.OpUGt, ir.OpUGe, ir.OpSelect, ir.OpMin, ir.OpMax,
		ir.OpAbs, ir.OpSExt8, ir.OpSExt16, ir.OpZExt8, ir.OpZExt16,
	} {
		if op != ir.OpConst && m.SW(op) <= 0 {
			t.Errorf("%s: SW latency %d", op, m.SW(op))
		}
		if op != ir.OpConst && op != ir.OpCopy && m.HW(op) <= 0 {
			t.Errorf("%s: HW delay %v", op, m.HW(op))
		}
	}
	// Barriers have software cost (the simulator accounts them).
	for _, op := range []ir.Op{ir.OpLoad, ir.OpStore, ir.OpCall, ir.OpGlobal, ir.OpAlloca} {
		if m.SW(op) <= 0 {
			t.Errorf("%s: barrier SW latency %d", op, m.SW(op))
		}
	}
}

func TestRelativeDelays(t *testing.T) {
	m := Default()
	// Key ratios the paper's motivation depends on: several adds chain
	// within one MAC-normalized cycle; logic is nearly free; a multiplier
	// nearly fills a cycle.
	if !(m.HW(ir.OpAnd) < m.HW(ir.OpSelect) && m.HW(ir.OpSelect) < m.HW(ir.OpAdd)) {
		t.Error("logic < mux < add ordering violated")
	}
	if !(m.HW(ir.OpAdd) < m.HW(ir.OpMul) && m.HW(ir.OpMul) <= 1.0) {
		t.Error("add < mul <= MAC ordering violated")
	}
	if 3*m.HW(ir.OpAdd) > 1.0 {
		t.Error("three chained adds should fit in one normalized cycle")
	}
}

func TestCyclesOf(t *testing.T) {
	cases := []struct {
		d    float64
		want int
	}{
		{0, 0}, {-1, 0}, {0.1, 1}, {0.9, 1}, {1.0, 1}, {1.0000001, 2},
		{1.5, 2}, {2.0, 2}, {2.3, 3}, {3.999, 4},
	}
	for _, c := range cases {
		if got := CyclesOf(c.d); got != c.want {
			t.Errorf("CyclesOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestPerturbed(t *testing.T) {
	m := Default()
	p := m.Perturbed(42, 0.3)
	if p.SW(ir.OpMul) != m.SW(ir.OpMul) {
		t.Error("perturbation must not change software latencies")
	}
	changed := false
	for _, op := range []ir.Op{ir.OpAdd, ir.OpMul, ir.OpShl, ir.OpSelect} {
		r := p.HW(op) / m.HW(op)
		if r < 0.7-1e-9 || r > 1.3+1e-9 {
			t.Errorf("%s: perturbation ratio %v out of bounds", op, r)
		}
		if r != 1 {
			changed = true
		}
	}
	if !changed {
		t.Error("perturbation changed nothing")
	}
	// Determinism.
	p2 := m.Perturbed(42, 0.3)
	if p.HW(ir.OpAdd) != p2.HW(ir.OpAdd) {
		t.Error("perturbation not deterministic")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad eps accepted")
		}
	}()
	m.Perturbed(1, 1.5)
}

// TestTablesKeepMapSemanticsAtEdges: the tables are arrays over every
// ir.Op value, so derive and Perturbed visit slots the §7 table never
// lists. Those ops — OpInvalid, OpCustom and every value past the last
// opcode — must cost 0 on every model, and every listed op must carry
// exactly its target's transform of Default.
func TestTablesKeepMapSemanticsAtEdges(t *testing.T) {
	def := Default()
	listed := func(op ir.Op) bool { return op >= ir.OpConst && op <= ir.OpCall }
	target := func(name string) *Model {
		tg, err := TargetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return tg.Model()
	}
	models := map[string]*Model{
		"paper":     target("paper"),
		"pipelined": target("pipelined"),
		"fwdcost":   target("fwdcost"),
		"perturbed": def.Perturbed(42, 0.3),
	}
	nonzeroPlus := func(v, d float64) float64 {
		if v == 0 {
			return 0
		}
		return v + d
	}
	for i := range opSlots {
		op := ir.Op(i)
		for name, m := range models {
			if !listed(op) {
				if m.SW(op) != 0 || m.HW(op) != 0 || m.Area(op) != 0 {
					t.Errorf("%s: unlisted op %d costs sw %d, hw %v, area %v; want 0",
						name, i, m.SW(op), m.HW(op), m.Area(op))
				}
				continue
			}
			if m.SW(op) != def.SW(op) {
				t.Errorf("%s: %s sw %d, want Default's %d", name, op, m.SW(op), def.SW(op))
			}
		}
		if !listed(op) {
			continue
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"paper hw", models["paper"].HW(op), def.HW(op)},
			{"paper area", models["paper"].Area(op), def.Area(op)},
			{"pipelined hw", models["pipelined"].HW(op), def.HW(op) * 0.65},
			{"pipelined area", models["pipelined"].Area(op), def.Area(op) * 1.15},
			{"fwdcost hw", models["fwdcost"].HW(op), nonzeroPlus(def.HW(op), 0.08)},
			{"fwdcost area", models["fwdcost"].Area(op), nonzeroPlus(def.Area(op), 0.01)},
		} {
			if c.got != c.want {
				t.Errorf("%s: %s %v, want %v", op, c.name, c.got, c.want)
			}
		}
		p := models["perturbed"]
		for _, c := range []struct{ got, base float64 }{{p.HW(op), def.HW(op)}, {p.Area(op), def.Area(op)}} {
			if (c.base == 0) != (c.got == 0) || c.got < c.base*(0.7-1e-9) || c.got > c.base*(1.3+1e-9) {
				t.Errorf("%s: perturbed %v from %v, want within ±30%%", op, c.got, c.base)
			}
		}
	}
}
