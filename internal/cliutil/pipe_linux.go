package cliutil

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// pipeSize is the buffer GrowPipe asks for: sixteen of schedule.StreamJSON's
// 64 KiB chunks, where the kernel's default pipe holds one.
const pipeSize = 1 << 20

// GrowPipe asks the kernel, best effort, to enlarge the pipe f writes to to
// 1 MiB, or to /proc/sys/fs/pipe-max-size where that is smaller, so a writer
// flushing 64 KiB chunks runs up to sixteen chunks ahead of its reader
// instead of stalling on every one. It never shrinks a pipe, does nothing
// when f is not a pipe, and ignores every failure: the pipe keeps its size.
func GrowPipe(f *os.File) {
	if fi, err := f.Stat(); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		return
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	_ = rc.Control(func(fd uintptr) {
		if n, err := fcntl(fd, syscall.F_GETPIPE_SZ, 0); err != nil || n >= pipeSize {
			return
		}
		if _, err := fcntl(fd, syscall.F_SETPIPE_SZ, pipeSize); err == nil {
			return
		}
		// Unprivileged, the kernel refuses sizes above pipe-max-size.
		if limit := pipeMaxSize(); limit > 0 && limit < pipeSize {
			_, _ = fcntl(fd, syscall.F_SETPIPE_SZ, limit)
		}
	})
}

// pipeMaxSize reads /proc/sys/fs/pipe-max-size, or returns 0.
func pipeMaxSize() int {
	b, err := os.ReadFile("/proc/sys/fs/pipe-max-size")
	if err != nil {
		return 0
	}
	n, _ := strconv.Atoi(strings.TrimSpace(string(b)))
	return n
}

func fcntl(fd uintptr, cmd, arg int) (int, error) {
	r, _, errno := syscall.Syscall(syscall.SYS_FCNTL, fd, uintptr(cmd), uintptr(arg))
	if errno != 0 {
		return 0, errno
	}
	return int(r), nil
}
