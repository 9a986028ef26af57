//go:build race

package main

// raceEnabled reports a -race build, under which the long golden readout
// is skipped.
const raceEnabled = true
