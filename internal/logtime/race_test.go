//go:build race

package logtime_test

// raceEnabled reports whether the race detector is on; the P = 10⁶ stream
// tests skip under it.
const raceEnabled = true
