package analyze_test

import (
	"strings"
	"testing"

	"isex/internal/core"
	"isex/internal/obs"
	"isex/internal/obs/analyze"
)

// TestEveryKindFullyWired is the exhaustiveness guard: adding an event
// kind to internal/obs without naming it, giving it chrome arg names,
// making it JSONL-roundtrippable, and teaching the analyzer where it
// attributes must fail here, not silently vanish from the reports.
func TestEveryKindFullyWired(t *testing.T) {
	handled := analyze.HandledKinds()
	kinds := obs.AllKinds()
	if len(kinds) != obs.KindCount {
		t.Fatalf("AllKinds() returned %d kinds, KindCount = %d", len(kinds), obs.KindCount)
	}
	for _, k := range kinds {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Errorf("Kind(%d) has no String() name", int(k))
			continue
		}
		back, ok := obs.KindByName(name)
		if !ok || back != k {
			t.Errorf("KindByName(%q) = (%v, %v), want (%v, true) — JSONL decode would drop it", name, back, ok, k)
		}
		if !obs.KindHasArgNames(k) {
			t.Errorf("kind %s has no chrome arg-name mapping", name)
		}
		if !handled[k] {
			t.Errorf("kind %s has no analyze decode case (add it to blockKinds or stageKinds)", name)
		}
	}
}

// TestEverySiteFullyWired asserts every fault-injection site has a name
// and a declared metrics footprint whose instrument names all exist in
// a freshly built registry.
func TestEverySiteFullyWired(t *testing.T) {
	reg := obs.NewRegistry()
	obs.NewMetrics(reg)
	snap := reg.Snapshot()
	for i := 0; i < obs.SiteCount; i++ {
		s := obs.Site(i)
		name := s.String()
		if name == "" || strings.HasPrefix(name, "site(") {
			t.Errorf("Site(%d) has no String() name", i)
			continue
		}
		metrics := obs.SiteMetricNames(s)
		if metrics == nil {
			t.Errorf("site %s has no metrics mapping (empty slice means 'deliberately none'; nil means drift)", name)
			continue
		}
		for _, m := range metrics {
			if _, ok := snap[m]; !ok {
				t.Errorf("site %s declares metric %q, which NewMetrics does not register", name, m)
			}
		}
	}
}

// TestStatusNamesMatchCore pins the analyzer's local status table to
// core.SearchStatus.String — the two must never drift, because the
// deterministic report renders status by name.
func TestStatusNamesMatchCore(t *testing.T) {
	for code := int64(0); ; code++ {
		want := core.SearchStatus(code).String()
		if strings.HasPrefix(want, "SearchStatus(") || strings.HasPrefix(want, "status(") {
			if code == 0 {
				t.Fatal("core.SearchStatus(0) has no name")
			}
			// End of core's named statuses: the analyzer must also be
			// out of names here.
			if got := analyze.StatusName(code); !strings.HasPrefix(got, "status(") {
				t.Errorf("analyze.StatusName(%d) = %q, but core has no status %d", code, got, code)
			}
			return
		}
		if got := analyze.StatusName(code); got != want {
			t.Errorf("StatusName(%d) = %q, core says %q", code, got, want)
		}
	}
}
