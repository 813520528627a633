//go:build !race

package logtime_test

const raceEnabled = false
