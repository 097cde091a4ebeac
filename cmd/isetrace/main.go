// Command isetrace is the post-mortem analyzer for flight-recorder
// traces written by `isex -trace`. It lifts the flat JSONL timeline
// into the causal span tree (pipeline stage → DSE cell → block search →
// worker lane → rescue/greedy rung) and renders attribution views
// over it:
//
//	isetrace trace.jsonl                  # per-span summary, heaviest first
//	isetrace -mode critical trace.jsonl   # critical path per root span
//	isetrace -mode lanes trace.jsonl      # per-worker lane economics
//	isetrace -mode explain trace.jsonl    # deterministic attribution report
//	isetrace -mode chrome trace.jsonl     # Chrome trace with span nesting
//
// summary/critical/lanes embrace wall-clock — byte-stable only against
// a fixed trace file. explain is the deterministic view: byte-identical
// across worker counts for exhaustive runs. chrome re-exports for
// Perfetto / chrome://tracing with cells, stages and block searches as
// nested duration events.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"isex/internal/obs"
	"isex/internal/obs/analyze"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "isetrace:", err)
		os.Exit(1)
	}
}

func run() error {
	mode := flag.String("mode", "summary", "view: summary, critical, lanes, explain, chrome")
	asJSON := flag.Bool("json", false, "explain mode: emit the report as JSON instead of text")
	out := flag.String("o", "", "write output to this file instead of stdout")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: isetrace [-mode summary|critical|lanes|explain|chrome] [-json] [-o out] trace.jsonl")
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ParseJSONL(f)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", flag.Arg(0), err)
	}

	w := os.Stdout
	if *out != "" {
		w, err = os.Create(*out)
		if err != nil {
			return err
		}
		defer w.Close()
	}

	if *mode == "chrome" {
		return analyze.WriteChrome(w, events)
	}
	a := analyze.Build(events)
	if *mode == "explain" && *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(analyze.BuildExplain(a))
	}
	s, err := analyze.Render(a, *mode)
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(w, s)
	return err
}
