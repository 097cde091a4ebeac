//go:build !race

package workload

// raceEnabled reports whether the race detector instruments this build;
// allocation guards are skipped under it.
const raceEnabled = false
