package core

import (
	"sync"
	"sync/atomic"

	"isex/internal/dfg"
)

// SeedBook is a concurrency-safe store of known-good cuts keyed by graph
// fingerprint, used to warm-start exact searches across *selection
// calls* — the DSE sweep's monotonicity exploit (DESIGN.md §16). The
// constraint-monotonicity lemma says a cut legal at (Nin, Nout) is legal
// at every (Nin′ ≥ Nin, Nout′ ≥ Nout), and a cut's merit is
// constraint-independent, so a tight grid point's winner is a sound
// incumbent for every looser neighbor — and because every candidate is
// revalidated with Legal and re-Evaluated on the consuming graph before
// it seeds anything, transfers are sound in *every* direction: an
// illegal candidate is simply skipped.
//
// Seeding itself is the W−1 rule of Config.withSeed: provably
// result-preserving on searches that run to completion, so a completed
// search returns bit-identical results with the book empty, shared, or
// absent — only the explored tree (and hence wall-clock) changes. A
// budget-stopped search's incumbent does depend on the seed; callers
// that need byte-identical output across runs must therefore make the
// book's contents at each lookup a deterministic function of program
// order, which the DSE sweep does by running the grid points of one
// (benchmark, target) chain tightest-first in sequence.
type SeedBook struct {
	mu sync.Mutex
	m  map[uint64][]seedEntry

	hits, misses atomic.Int64
}

type seedEntry struct {
	cut dfg.Cut
}

// seedFanout caps how many distinct cuts the book keeps per fingerprint:
// enough to survive a few constraint points disagreeing about the best
// cut, small enough that lookup revalidation stays cheap.
const seedFanout = 4

// NewSeedBook returns an empty book.
func NewSeedBook() *SeedBook {
	return &SeedBook{m: make(map[uint64][]seedEntry)}
}

// Stats reports how many seed lookups hit (a stored cut was legal with
// positive merit on the consuming graph) and missed. Timing-dependent
// under concurrent sweeps — report it as telemetry, never as part of a
// deterministic artifact.
func (b *SeedBook) Stats() (hits, misses int64) {
	if b == nil {
		return 0, 0
	}
	return b.hits.Load(), b.misses.Load()
}

// put records a winning cut under fp, keeping at most seedFanout
// distinct cuts (first-come; an identical cut is not duplicated).
// Reports whether the cut was actually stored, so the probe site only
// fires for real additions.
func (b *SeedBook) put(fp uint64, c dfg.Cut) bool {
	if b == nil || len(c) == 0 {
		return false
	}
	cp := append(dfg.Cut(nil), c...)
	b.mu.Lock()
	defer b.mu.Unlock()
	entries := b.m[fp]
	if len(entries) >= seedFanout {
		return false
	}
	for _, e := range entries {
		if cutsEqual(e.cut, cp) {
			return false
		}
	}
	b.m[fp] = append(entries, seedEntry{cut: cp})
	return true
}

// lookup returns the stored cuts for fp (shared slices; callers must
// treat them as immutable, which seedIncumbent and the engine do by
// copying).
func (b *SeedBook) lookup(fp uint64) []seedEntry {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m[fp]
}

func cutsEqual(a, c dfg.Cut) bool {
	if len(a) != len(c) {
		return false
	}
	for i := range a {
		if a[i] != c[i] {
			return false
		}
	}
	return true
}

// applySeed arms cfg's incumbent seed from the book: every stored
// cut for g's fingerprint is revalidated (Legal at cfg's ports, positive
// re-Evaluated merit) and the best survivor seeds the search via
// withSeed.
func (b *SeedBook) applySeed(g *dfg.Graph, fp uint64, cfg Config) Config {
	tag := g.Fn.Name + "/" + g.Block.Name
	var bestCut dfg.Cut
	var bestMerit int64
	rejected := 0
	for _, e := range b.lookup(fp) {
		if !g.Legal(e.cut, cfg.Nin, cfg.Nout) {
			rejected++
			continue
		}
		m := Evaluate(g, e.cut, cfg.model()).Merit
		if m <= 0 {
			rejected++
			continue
		}
		if m > bestMerit {
			bestMerit, bestCut = m, e.cut
		}
	}
	cfg.Probe.SeedReject(tag, rejected)
	if bestCut == nil {
		b.misses.Add(1)
		return cfg
	}
	b.hits.Add(1)
	cfg.Probe.SeedHit(tag, bestMerit, len(bestCut))
	return cfg.withSeed(bestMerit, bestCut)
}
