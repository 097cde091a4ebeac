package dfg

import (
	"math/rand"
	"testing"
)

// TestLegalMonotoneInConstraints property-checks that the port
// constraints only ever appear as upper bounds in Problem 1, so
//
//	Legal(c, nin, nout) ⟹ Legal(c, nin′, nout′)  for nin′ ≥ nin, nout′ ≥ nout
//
// — a cut found legal at a tight grid point is legal at every looser
// point (DESIGN.md §16 prices reusing such cuts as incumbents across a
// sweep's constraint points). The test drives seeded random graphs
// and random cuts through the production bitset kernel (Legal/LegalSet)
// and the specification predicate (LegalSpec) in lockstep: the two must
// agree at the base point, and a legal base point must stay legal at
// every widened constraint pair under all three implementations.
func TestLegalMonotoneInConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	deltas := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 3}, {4, 4}, {16, 16}}
	graphs, cuts, legal := 0, 0, 0
	for iter := 0; iter < 200; iter++ {
		g := randomGraphLocal(rng, 8+rng.Intn(24))
		graphs++
		for tries := 0; tries < 16; tries++ {
			c := randomCut(rng, g)
			if len(c) == 0 {
				continue
			}
			cuts++
			nin := 1 + rng.Intn(6)
			nout := 1 + rng.Intn(4)
			fast := g.Legal(c, nin, nout)
			spec := g.LegalSpec(c, nin, nout)
			set := g.LegalSet(g.memberBits(c), nin, nout)
			if fast != spec || fast != set {
				t.Fatalf("iter %d: implementations disagree at (%d,%d) on cut %v: Legal=%v LegalSpec=%v LegalSet=%v",
					iter, nin, nout, c, fast, spec, set)
			}
			if !fast {
				continue
			}
			legal++
			for _, d := range deltas {
				nin2, nout2 := nin+d[0], nout+d[1]
				if !g.Legal(c, nin2, nout2) {
					t.Fatalf("iter %d: monotonicity violated (Legal): cut %v legal at (%d,%d) but not at (%d,%d)",
						iter, c, nin, nout, nin2, nout2)
				}
				if !g.LegalSpec(c, nin2, nout2) {
					t.Fatalf("iter %d: monotonicity violated (LegalSpec): cut %v legal at (%d,%d) but not at (%d,%d)",
						iter, c, nin, nout, nin2, nout2)
				}
				if !g.LegalSet(g.memberBits(c), nin2, nout2) {
					t.Fatalf("iter %d: monotonicity violated (LegalSet): cut %v legal at (%d,%d) but not at (%d,%d)",
						iter, c, nin, nout, nin2, nout2)
				}
			}
		}
	}
	if legal == 0 {
		t.Fatalf("vacuous run: %d graphs, %d cuts, none legal — tune the generator", graphs, cuts)
	}
	t.Logf("%d graphs, %d cuts, %d legal base points widened through %d deltas", graphs, cuts, legal, len(deltas))
}
