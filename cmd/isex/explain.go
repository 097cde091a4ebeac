package main

import (
	"encoding/json"
	"fmt"
	"os"

	"isex/internal/obs"
	"isex/internal/obs/analyze"
)

// runExplain is the -explain entry: lift a recorded JSONL trace into
// the causal span tree and print the deterministic attribution report.
// Deterministic means deterministic: for exhaustive runs the output is
// byte-identical across -workers values, so it can be diffed and
// golden-tested — the timing-aware views live in cmd/isetrace instead.
func runExplain(path string, asJSON bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ParseJSONL(f)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	a := analyze.Build(events)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(analyze.BuildExplain(a))
	}
	analyze.WriteExplain(os.Stdout, a)
	return nil
}
