//go:build !linux

package cliutil

import "os"

// GrowPipe enlarges f's pipe buffer on Linux (see pipe_linux.go); elsewhere
// it does nothing.
func GrowPipe(f *os.File) {}
