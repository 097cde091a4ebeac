package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCheckFig: every figure name and "all" pass; an unknown name fails
// with an error that lists the valid names.
func TestCheckFig(t *testing.T) {
	for _, fig := range append([]string{"all"}, figures...) {
		if err := checkFig(fig); err != nil {
			t.Errorf("checkFig(%q) = %v, want nil", fig, err)
		}
	}
	for _, fig := range []string{"nosuch", "obsbench", "dedupbench", ""} {
		err := checkFig(fig)
		if err == nil {
			t.Errorf("checkFig(%q) accepted an unknown figure", fig)
			continue
		}
		for _, name := range figures {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("checkFig(%q) error %q does not name figure %q", fig, err, name)
			}
		}
	}
}

// paperFiguresArgs is the invocation docs/results-full.txt records.
var paperFiguresArgs = []string{"-budget", "3000000", "-measure"}

// TestPaperFiguresGolden regenerates docs/results-full.txt and compares
// it byte for byte, with the two wall-clock readings blanked on both
// sides. Every paper-figure cell a change moves therefore shows up in
// the diff of that file. Regenerate it with
//
//	go run ./cmd/isebench -budget 3000000 -measure > docs/results-full.txt
func TestPaperFiguresGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("regenerates every figure (about 8 s without the race detector)")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "results-full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	figs, o, err := parseArgs(paperFiguresArgs)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, figs, o); err != nil {
		t.Fatal(err)
	}
	g, w := blankTimings(got.String()), blankTimings(string(want))
	if g == w {
		return
	}
	gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var a, b string
		if i < len(gl) {
			a = gl[i]
		}
		if i < len(wl) {
			b = wl[i]
		}
		if a != b {
			t.Fatalf("docs/results-full.txt is stale from line %d:\n got: %q\nwant: %q", i+1, a, b)
		}
	}
}

// dseWall matches the DSE sweep's wall-clock reading.
var dseWall = regexp.MustCompile(`(?m)^[0-9.]+s wall, `)

// blankTimings replaces the DSE sweep's wall time and the §8 run-time
// table's time column with "-". The run-time table pads its columns to
// their widest cell, so its lines are also re-spaced to single blanks.
func blankTimings(s string) string {
	s = dseWall.ReplaceAllString(s, "-s wall, ")
	lines := strings.Split(s, "\n")
	inRuntime := false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "§8 — identification run time"):
			inRuntime = true
		case !inRuntime || strings.HasPrefix(l, "===="):
		case l == "":
			inRuntime = false
		default:
			f := strings.Fields(l)
			if len(f) == 6 && f[0] != "benchmark" {
				f[3] = "-"
			}
			if strings.Trim(l, "-") == "" {
				f = []string{"-"}
			}
			lines[i] = strings.Join(f, " ")
		}
	}
	return strings.Join(lines, "\n")
}
