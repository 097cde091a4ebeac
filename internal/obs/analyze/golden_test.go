package analyze_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"isex/internal/obs"
	"isex/internal/obs/analyze"
)

var update = flag.Bool("update", false, "rewrite the golden analyzer outputs from the committed fixture")

// loadFixture parses the committed trace fixture. The fixture is a
// hand-written timeline that exercises every span level and every
// block-scoped event kind: a cell with a two-block stage (parallel
// lanes, racer, rescue/greedy rungs, seed-book traffic, a recovered
// panic), a top-level stage, a top-level block, an unscoped stall and
// one orphaned ring event.
func loadFixture(t *testing.T) []obs.Event {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ParseJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestGoldenRenderings pins every analyzer rendering of the committed
// fixture byte-for-byte: summary, critical path, per-worker lanes, the
// deterministic explain report (text and JSON), and the Chrome
// re-export. A diff here means the analyzer's output format changed —
// regenerate with `go test ./internal/obs/analyze -run Golden -update`
// and review the diff like any other golden change.
func TestGoldenRenderings(t *testing.T) {
	events := loadFixture(t)
	a := analyze.Build(events)

	got := map[string][]byte{}
	for _, mode := range []string{"summary", "critical", "lanes", "explain"} {
		s, err := analyze.Render(a, mode)
		if err != nil {
			t.Fatal(err)
		}
		got["golden."+mode+".txt"] = []byte(s)
	}
	var ej bytes.Buffer
	enc := json.NewEncoder(&ej)
	enc.SetIndent("", "  ")
	if err := enc.Encode(analyze.BuildExplain(a)); err != nil {
		t.Fatal(err)
	}
	got["golden.explain.json"] = ej.Bytes()
	var ch bytes.Buffer
	if err := analyze.WriteChrome(&ch, events); err != nil {
		t.Fatal(err)
	}
	got["golden.chrome.json"] = ch.Bytes()

	for name, data := range got {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", name, err)
		}
		if !bytes.Equal(want, data) {
			t.Errorf("%s drifted from the committed golden output:\n--- got ---\n%s\n--- want ---\n%s", name, data, want)
		}
	}
}

// TestGoldenSpanTree pins the structural lift of the fixture: the span
// counts, parentage, per-lane tallies, and the orphan/unscoped
// accounting the renderers summarize.
func TestGoldenSpanTree(t *testing.T) {
	a := analyze.Build(loadFixture(t))
	if len(a.Cells) != 1 || len(a.Stages) != 2 || len(a.Blocks) != 4 {
		t.Fatalf("got %d cells, %d stages, %d blocks; want 1, 2, 4", len(a.Cells), len(a.Stages), len(a.Blocks))
	}
	if len(a.TopStages) != 1 || len(a.TopBlocks) != 1 {
		t.Fatalf("got %d top stages, %d top blocks; want 1, 1", len(a.TopStages), len(a.TopBlocks))
	}
	if a.Unscoped != 1 || a.Orphans != 1 {
		t.Fatalf("unscoped=%d orphans=%d; want 1, 1", a.Unscoped, a.Orphans)
	}
	cell := a.Cells[0]
	if len(cell.Stages) != 1 || len(cell.Stages[0].Blocks) != 2 {
		t.Fatalf("cell has %d stages; want 1 with 2 blocks", len(cell.Stages))
	}
	b0 := cell.Stages[0].Blocks[0]
	if b0.Tag != "f/b0" || b0.Merit != 60 || b0.Cuts != 120 {
		t.Fatalf("b0 = %q merit=%d cuts=%d; want f/b0 60 120", b0.Tag, b0.Merit, b0.Cuts)
	}
	if len(b0.Lanes) != 2 || b0.Prunes != 1 || b0.Bounds != 1 || b0.Steals != 1 || b0.StolenSubs != 2 {
		t.Fatalf("b0 lanes=%d prunes=%d bounds=%d steals=%d stolen=%d", len(b0.Lanes), b0.Prunes, b0.Bounds, b0.Steals, b0.StolenSubs)
	}
	if len(b0.RacerPubs) != 1 || b0.RacerRestarts != 1 || b0.RacerToggles != 12 {
		t.Fatalf("b0 racer pubs=%d restarts=%d toggles=%d", len(b0.RacerPubs), b0.RacerRestarts, b0.RacerToggles)
	}
	b1 := cell.Stages[0].Blocks[1]
	if !b1.RescueTried || !b1.RescueFound || b1.RescueMerit != 35 {
		t.Fatalf("b1 rescue tried=%v found=%v merit=%d", b1.RescueTried, b1.RescueFound, b1.RescueMerit)
	}
	if !b1.GreedyTried || b1.GreedyFound {
		t.Fatalf("b1 greedy tried=%v found=%v; want tried, empty", b1.GreedyTried, b1.GreedyFound)
	}
	if b1.SeedMerit != 30 || b1.SeedPuts != 1 || b1.SeedRejects != 1 || b1.Panics != 1 {
		t.Fatalf("b1 seed=%d puts=%d rejects=%d panics=%d", b1.SeedMerit, b1.SeedPuts, b1.SeedRejects, b1.Panics)
	}
	st := cell.Stages[0]
	if st.DedupHits != 1 || st.DedupMisses != 1 || st.Collapses != 1 {
		t.Fatalf("stage driver tallies: %+v", *st)
	}
}

// TestExplainJSONLRoundTrip asserts the analyzer sees the identical
// report whether it consumes in-memory events or their JSONL form —
// the property that makes `isex -explain` and cmd/isetrace agree.
func TestExplainJSONLRoundTrip(t *testing.T) {
	events := loadFixture(t)
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	direct := analyze.BuildExplain(analyze.Build(events))
	roundtrip := analyze.BuildExplain(analyze.Build(back))
	dj, _ := json.Marshal(direct)
	rj, _ := json.Marshal(roundtrip)
	if !bytes.Equal(dj, rj) {
		t.Fatalf("explain diverged across the JSONL round trip:\n%s\nvs\n%s", dj, rj)
	}
}
