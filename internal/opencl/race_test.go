//go:build race

package opencl_test

// raceEnabled reports a race-detector build, whose instrumentation moves heap
// allocation counts by a few objects from run to run.
const raceEnabled = true
