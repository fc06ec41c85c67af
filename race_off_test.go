//go:build !race

package slicer_test

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = false
