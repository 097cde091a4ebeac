//go:build race

package sim

// raceEnabled reports whether the race detector instruments this build;
// allocation guards are skipped under it.
const raceEnabled = true
