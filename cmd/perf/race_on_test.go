//go:build race

package main

// raceEnabled reports that the race detector instruments this build: the
// child-process tests would re-execute an instrumented binary ten times
// (minutes), and instrumentation frames become every profile's leaves.
const raceEnabled = true
