//go:build !race

package interp

// raceEnabled reports whether the race detector instruments this build;
// allocation guards are skipped under it.
const raceEnabled = false
