package dfg

import (
	"fmt"
	"math/rand"
	"testing"

	"isex/internal/ir"
)

// ---------------------------------------------------------------------------
// Hand-built graph helpers. CutCanonHash and CutCanonMatch operate purely
// on the Nodes slice, so the differential tests construct graphs directly
// — this also lets them build cyclic graphs (the WL-hard pair) that Build
// never produces. A cut of every node (allNodes) induces the whole graph
// as its datapath, so the cut digest can be checked against whole-graph
// isomorphism. Cuts never hold forbidden nodes, so none are built.

type tEdge struct{ u, v int }

func handGraph(name string, ops []ir.Op, data, order []tEdge) *Graph {
	g := &Graph{
		Fn:    &ir.Function{Name: name},
		Block: &ir.Block{Name: "b0"},
		Nodes: make([]Node, len(ops)),
	}
	for i := range ops {
		g.Nodes[i] = Node{
			ID: i, Kind: KindOp, Op: ops[i], InstrIndex: i, Reg: ir.NoReg,
			Name: fmt.Sprintf("%s_n%d", name, i),
		}
	}
	for _, e := range data {
		g.Nodes[e.u].Succs = append(g.Nodes[e.u].Succs, e.v)
		g.Nodes[e.v].Preds = append(g.Nodes[e.v].Preds, e.u)
	}
	for _, e := range order {
		g.Nodes[e.u].OrderSuccs = append(g.Nodes[e.u].OrderSuccs, e.v)
		g.Nodes[e.v].OrderPreds = append(g.Nodes[e.v].OrderPreds, e.u)
	}
	return g
}

// permuted returns a copy of g with node IDs relabeled by perm (node i
// becomes node perm[i]) and every name changed — an isomorphic graph that
// shares nothing positional with the original.
func permuted(g *Graph, perm []int, name string) *Graph {
	mapIDs := func(ids []int) []int {
		out := make([]int, len(ids))
		for i, id := range ids {
			out[i] = perm[id]
		}
		return out
	}
	ng := &Graph{
		Fn:    &ir.Function{Name: name},
		Block: &ir.Block{Name: "b0"},
		Nodes: make([]Node, len(g.Nodes)),
	}
	for i := range g.Nodes {
		nd := g.Nodes[i]
		nd.ID = perm[i]
		nd.Name = fmt.Sprintf("%s_n%d", name, perm[i])
		nd.Preds = mapIDs(nd.Preds)
		nd.Succs = mapIDs(nd.Succs)
		nd.OrderPreds = mapIDs(nd.OrderPreds)
		nd.OrderSuccs = mapIDs(nd.OrderSuccs)
		ng.Nodes[perm[i]] = nd
	}
	return ng
}

// bruteIso decides graph isomorphism by backtracking over all node
// assignments that respect the base attributes — the ground truth the
// canonical hash is tested against. Only usable on small graphs.
func bruteIso(a, b *Graph) bool {
	n := len(a.Nodes)
	if n != len(b.Nodes) {
		return false
	}
	type base struct {
		kind Kind
		op   ir.Op
		forb bool
		lat  int
	}
	bs := func(nd *Node) base { return base{nd.Kind, nd.Op, nd.Forbidden, nd.SuperLatency} }
	type ek struct{ u, v int }
	edges := func(g *Graph) (data, order map[ek]bool) {
		data, order = map[ek]bool{}, map[ek]bool{}
		for i := range g.Nodes {
			for _, s := range g.Nodes[i].Succs {
				data[ek{i, s}] = true
			}
			for _, s := range g.Nodes[i].OrderSuccs {
				order[ek{i, s}] = true
			}
		}
		return
	}
	da, oa := edges(a)
	db, ob := edges(b)
	if len(da) != len(db) || len(oa) != len(ob) {
		return false
	}
	m := make([]int, n)
	used := make([]bool, n)
	for i := range m {
		m[i] = -1
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return true
		}
		for j := 0; j < n; j++ {
			if used[j] || bs(&a.Nodes[i]) != bs(&b.Nodes[j]) {
				continue
			}
			ok := true
			for p := 0; p < i && ok; p++ {
				if da[ek{i, p}] != db[ek{j, m[p]}] || da[ek{p, i}] != db[ek{m[p], j}] ||
					oa[ek{i, p}] != ob[ek{j, m[p]}] || oa[ek{p, i}] != ob[ek{m[p], j}] {
					ok = false
				}
			}
			if !ok {
				continue
			}
			m[i], used[j] = j, true
			if rec(i + 1) {
				return true
			}
			m[i], used[j] = -1, false
		}
		return false
	}
	return rec(0)
}

// checkRenaming fails the test unless ren is a valid isomorphism a → b:
// a bijection preserving base attributes and both edge classes.
func checkRenaming(t *testing.T, a, b *Graph, ren []int) {
	t.Helper()
	if len(ren) != len(a.Nodes) {
		t.Fatalf("renaming length %d, want %d", len(ren), len(a.Nodes))
	}
	seen := map[int]bool{}
	for i := range a.Nodes {
		j := ren[i]
		if j < 0 || j >= len(b.Nodes) || seen[j] {
			t.Fatalf("renaming[%d] = %d is not a bijection", i, j)
		}
		seen[j] = true
		na, nb := &a.Nodes[i], &b.Nodes[j]
		if na.Kind != nb.Kind || na.Op != nb.Op || na.Forbidden != nb.Forbidden ||
			na.SuperLatency != nb.SuperLatency {
			t.Fatalf("renaming %d->%d maps different base attributes", i, j)
		}
		wantSucc := map[int]bool{}
		for _, s := range nb.Succs {
			wantSucc[s] = true
		}
		if len(na.Succs) != len(nb.Succs) {
			t.Fatalf("renaming %d->%d: succ degree mismatch", i, j)
		}
		for _, s := range na.Succs {
			if !wantSucc[ren[s]] {
				t.Fatalf("renaming %d->%d does not preserve edge %d->%d", i, j, i, s)
			}
		}
		wantOrd := map[int]bool{}
		for _, s := range nb.OrderSuccs {
			wantOrd[s] = true
		}
		if len(na.OrderSuccs) != len(nb.OrderSuccs) {
			t.Fatalf("renaming %d->%d: order degree mismatch", i, j)
		}
		for _, s := range na.OrderSuccs {
			if !wantOrd[ren[s]] {
				t.Fatalf("renaming %d->%d does not preserve order edge %d->%d", i, j, i, s)
			}
		}
	}
}

var canonOps = []ir.Op{ir.OpAdd, ir.OpMul, ir.OpSub, ir.OpXor}

// randomDAG builds a random op-node DAG with n nodes (edges only from
// lower to higher index, so it is acyclic).
func randomDAG(rng *rand.Rand, name string, n int) *Graph {
	ops := make([]ir.Op, n)
	for i := range ops {
		ops[i] = canonOps[rng.Intn(len(canonOps))]
	}
	var data, order []tEdge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch rng.Intn(10) {
			case 0, 1, 2:
				data = append(data, tEdge{i, j})
			case 3:
				order = append(order, tEdge{i, j})
			}
		}
	}
	return handGraph(name, ops, data, order)
}

// allNodes is the cut holding every node of g.
func allNodes(g *Graph) Cut {
	c := make(Cut, len(g.Nodes))
	for i := range c {
		c[i] = i
	}
	return c
}

func randPerm(rng *rand.Rand, n int) []int {
	p := make([]int, n)
	for i, v := range rng.Perm(n) {
		p[i] = v
	}
	return p
}

// TestCanonHashDifferential cross-checks CutCanonHash and the matcher
// behind CutCanonMatch against brute-force isomorphism on seeded random
// datapaths: hash equality must coincide with isomorphism on this corpus
// (soundness always; completeness is a property of the corpus — see
// TestCanonHashWLHardPair for the known exception class), and every
// isomorphic pair must yield a verifiable renaming.
func TestCanonHashDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hash := func(g *Graph) CanonDigest { return g.CutCanonHash(allNodes(g)) }
	for trial := 0; trial < 150; trial++ {
		n := 3 + rng.Intn(6) // 3..8 nodes
		a := randomDAG(rng, "a", n)

		// An ID-permuted, renamed copy is isomorphic: equal hashes, and
		// the matcher must produce a valid renaming (dense indexes of an
		// allNodes cut are node IDs).
		b := permuted(a, randPerm(rng, n), "b")
		if hash(a) != hash(b) {
			t.Fatalf("trial %d: permuted copy changed CutCanonHash", trial)
		}
		if !bruteIso(a, b) {
			t.Fatalf("trial %d: bruteIso rejects a permuted copy", trial)
		}
		ren, ok := canonMatch(a.canonCut(allNodes(a)), b.canonCut(allNodes(b)))
		if !ok {
			t.Fatalf("trial %d: the matcher rejects a permuted copy", trial)
		}
		checkRenaming(t, a, b, ren)

		// An independently drawn graph (or a mutated copy) agrees with the
		// ground truth in both directions.
		var c *Graph
		if rng.Intn(2) == 0 {
			c = randomDAG(rng, "c", 3+rng.Intn(6))
		} else {
			c = permuted(a, randPerm(rng, n), "c")
			nd := &c.Nodes[rng.Intn(n)]
			nd.Op = canonOps[(int(nd.Op)+1)%len(canonOps)]
		}
		hashEq := hash(a) == hash(c)
		iso := bruteIso(a, c)
		if hashEq != iso {
			t.Fatalf("trial %d: hash equality %v but brute-force isomorphism %v",
				trial, hashEq, iso)
		}
		if ok := CutCanonMatch(a, allNodes(a), c, allNodes(c)); ok != iso {
			t.Fatalf("trial %d: CutCanonMatch %v but brute-force isomorphism %v",
				trial, ok, iso)
		}
	}
}

// TestCanonHashWLHardPair documents the accepted incompleteness of the
// 1-dimensional WL refinement CutCanonHash uses: a 6-cycle and two
// disjoint 3-cycles (symmetric directed edges, uniform ops) are locally
// identical everywhere, so their hashes collide even though they are not
// isomorphic. This is why hash equality is only a candidate filter — the
// false merge is rejected by CutCanonMatch.
func TestCanonHashWLHardPair(t *testing.T) {
	sym := func(cycles [][]int) []tEdge {
		var out []tEdge
		for _, cyc := range cycles {
			for i := range cyc {
				u, v := cyc[i], cyc[(i+1)%len(cyc)]
				out = append(out, tEdge{u, v}, tEdge{v, u})
			}
		}
		return out
	}
	ops := make([]ir.Op, 6)
	for i := range ops {
		ops[i] = ir.OpAdd
	}
	c6 := handGraph("c6", ops, sym([][]int{{0, 1, 2, 3, 4, 5}}), nil)
	c33 := handGraph("c33", ops, sym([][]int{{0, 1, 2}, {3, 4, 5}}), nil)

	if c6.CutCanonHash(allNodes(c6)) != c33.CutCanonHash(allNodes(c33)) {
		t.Fatalf("expected the WL-hard pair to collide (that is the documented limitation)")
	}
	if bruteIso(c6, c33) {
		t.Fatalf("C6 and 2xC3 must not be isomorphic")
	}
	if CutCanonMatch(c6, allNodes(c6), c33, allNodes(c33)) {
		t.Fatalf("CutCanonMatch must reject the WL-hard pair")
	}
}

// buildStraightNamed is buildStraightLine for an arbitrary function name,
// so cross-function isomorphism has something to chew on.
func buildStraightNamed(t *testing.T, name string, last ir.Op) *Graph {
	t.Helper()
	b := ir.NewBuilder(name, 2)
	a, bb := b.Fn.Params[0], b.Fn.Params[1]
	t0 := b.Op(ir.OpAdd, a, bb)
	t1 := b.Op(ir.OpMul, t0, a)
	t2 := b.Op(last, t0, t1)
	b.Store(a, t2)
	b.Ret(t2)
	f := b.Finish()
	if err := ir.VerifyFunction(f, nil); err != nil {
		t.Fatal(err)
	}
	return mustBuild(t, f, f.Entry(), ir.Liveness(f))
}

// TestCutCanonHash: the same cut, picked by instruction position, on two
// builds of one source under different function names digests equally
// and matches; a different cut does not collide.
func TestCutCanonHash(t *testing.T) {
	a := buildStraightNamed(t, "fa", ir.OpSub)
	b := buildStraightNamed(t, "fb", ir.OpSub)
	ca := Cut{opNode(t, a, 0), opNode(t, a, 1)}
	cb := Cut{opNode(t, b, 0), opNode(t, b, 1)}
	if a.CutCanonHash(ca) != b.CutCanonHash(cb) {
		t.Fatalf("isomorphic cuts hash differently")
	}
	other := Cut{opNode(t, a, 0)}
	if a.CutCanonHash(ca) == a.CutCanonHash(other) {
		t.Fatalf("different cuts collide")
	}
	if !CutCanonMatch(a, ca, b, cb) {
		t.Fatalf("CutCanonMatch rejects isomorphic cuts")
	}
}
