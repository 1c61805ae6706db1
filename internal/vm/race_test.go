//go:build race

package vm

// raceEnabled reports that the race detector instruments this build.
const raceEnabled = true
