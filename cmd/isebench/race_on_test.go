//go:build race

package main

// raceEnabled reports whether the race detector instruments this build;
// TestPaperFiguresGolden is too slow under it and skips.
const raceEnabled = true
