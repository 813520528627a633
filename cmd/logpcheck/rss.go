package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// rss runs one command as a child and prints its wall time and its own
// peak RSS, read from the child's getrusage record, then this process's peak
// RSS. The parent is small (it allocates next to nothing), so a child figure
// near the parent's would mean the child inherited the parent's high-water
// mark rather than reaching it itself. The child's stdout and stderr pass
// through; its exit status is logpcheck's.
//
//	logpcheck rss -- ./logpconform -paper=false -seeds 0 -scale 1000000
func rss(args []string, _ io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "--" {
		args = args[1:]
	}
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: logpcheck rss -- command [args ...]")
		return 2
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, stdout, stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		fmt.Fprintf(stderr, "logpcheck rss: %v\n", err)
		return 2
	}
	var self syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &self); err != nil {
		fmt.Fprintf(stderr, "logpcheck rss: %v\n", err)
		return 2
	}
	child, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	var childKiB int64
	if child != nil {
		childKiB = child.Maxrss // Linux reports KiB
	}
	fmt.Fprintf(stdout, "rss: %s: wall %.3f s, child max RSS %.1f MiB, parent max RSS %.1f MiB\n",
		args[0], wall.Seconds(), float64(childKiB)/1024, float64(self.Maxrss)/1024)
	return cmd.ProcessState.ExitCode()
}
