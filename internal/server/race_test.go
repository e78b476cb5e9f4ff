//go:build race

package server_test

// raceEnabled reports a build with the race detector.
const raceEnabled = true
