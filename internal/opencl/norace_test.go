//go:build !race

package opencl_test

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
