//go:build !race

package logtime

const raceEnabled = false
