package cliutil

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func pipeSizeOf(t *testing.T, f *os.File) int {
	t.Helper()
	rc, err := f.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var ferr error
	if err := rc.Control(func(fd uintptr) { n, ferr = fcntl(fd, syscall.F_GETPIPE_SZ, 0) }); err != nil {
		t.Fatal(err)
	}
	if ferr != nil {
		t.Fatalf("F_GETPIPE_SZ: %v", ferr)
	}
	return n
}

// TestGrowPipe: a pipe's write end grows to min(1 MiB, pipe-max-size), and
// growing it again changes nothing.
func TestGrowPipe(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	want := pipeSize
	if limit := pipeMaxSize(); limit > 0 && limit < want {
		want = limit
	}
	if before := pipeSizeOf(t, w); before >= want {
		t.Skipf("a new pipe already holds %d bytes", before)
	}
	for i := 0; i < 2; i++ {
		GrowPipe(w)
		if got := pipeSizeOf(t, w); got != want {
			t.Fatalf("after GrowPipe #%d the pipe holds %d bytes, want %d", i+1, got, want)
		}
	}
	// The pipe still carries bytes.
	if _, err := w.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := r.Read(buf); err != nil || string(buf) != "ok" {
		t.Fatalf("read %q, %v", buf, err)
	}
}

// TestGrowPipeIgnoresNonPipes: on a regular file and on /dev/null GrowPipe
// does nothing, and the file writes as before.
func TestGrowPipeIgnoresNonPipes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for _, f := range []*os.File{f, null} {
		GrowPipe(f)
		if _, err := f.Write([]byte("ok")); err != nil {
			t.Fatalf("%s: write after GrowPipe: %v", f.Name(), err)
		}
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "ok" {
		t.Fatalf("regular file holds %q, %v", b, err)
	}
}
