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
	for i := 0; i < obs.KindCount; i++ {
		k := obs.Kind(i)
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Errorf("Kind(%d) has no String() name", i)
			continue
		}
		back, ok := obs.KindByName(name)
		if !ok || back != k {
			t.Errorf("KindByName(%q) = (%v, %v), want (%v, true) — JSONL decode would drop it", name, back, ok, k)
		}
		if obs.KindArgNames(k) == [3]string{} {
			t.Errorf("kind %s has no chrome arg-name mapping", name)
		}
		if !handled[k] {
			t.Errorf("kind %s has no analyze decode case (add it to blockKinds or stageKinds)", name)
		}
	}
}

// TestEverySiteFullyWired asserts every fault-injection site has a name.
func TestEverySiteFullyWired(t *testing.T) {
	for i := 0; i < obs.SiteCount; i++ {
		if name := obs.Site(i).String(); name == "" || strings.HasPrefix(name, "site(") {
			t.Errorf("Site(%d) has no String() name", i)
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
