package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	osexec "os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/serve/sched"
)

// TestStreamedJSONMatchesCompiled: -render json for broadcast, reduce, scan
// and binomial streams, and what it streams is the compiled schedule's
// WriteJSON byte for byte — over machines with o = 0, g < o, g = o and
// g ≥ L+2o.
func TestStreamedJSONMatchesCompiled(t *testing.T) {
	for _, shape := range []logp.Machine{
		logp.MustNew(1, 6, 2, 4), logp.MustNew(1, 3, 0, 2), logp.MustNew(1, 6, 3, 1), logp.MustNew(1, 5, 2, 2),
		logp.MustNew(1, 2, 1, 7),
	} {
		for _, p := range []int{1, 2, 300, 3000} {
			for _, op := range []string{"broadcast", "reduce", "scan", "binomial"} {
				m := shape.WithP(p)
				args := []string{"-op", op, "-P", strconv.Itoa(p), "-L", strconv.FormatInt(m.L, 10),
					"-o", strconv.FormatInt(m.O, 10), "-g", strconv.FormatInt(m.G, 10)}
				got, err := exec(t, args...)
				if err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				c, err := sched.Compile(m, op, 1, 0, logtime.Tree)
				if err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				if err := c.S.WriteJSON(&want); err != nil {
					t.Fatal(err)
				}
				if got != want.String() {
					t.Fatalf("%v: streamed %d bytes differ from the compiled schedule's %d", args, len(got), want.Len())
				}
			}
		}
	}
}

// TestJSONRenderStreams: a P = 2·10⁵ broadcast, reduce, scan or binomial
// baseline to stdout allocates a few hundred KiB, not the ~40 MB its tree
// and events take when materialized — the request took the streaming path.
func TestJSONRenderStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("P = 2·10⁵ schedules")
	}
	for _, op := range []string{"broadcast", "reduce", "scan", "binomial"} {
		args := []string{"-op", op, "-P", "200000"}
		if err := run(args, io.Discard, io.Discard); err != nil { // pays the process's one-time setup
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("%s P=200000 -render json allocated %d bytes; want under 1 MiB", op, d)
		}
	}
}

// TestStreamedMetrics: -metrics prints the snapshot on the streaming path
// too, with the table counter the stream touched.
func TestStreamedMetrics(t *testing.T) {
	for _, op := range []string{"broadcast", "reduce", "scan"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-op", op, "-P", "64", "-metrics"}, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		if stdout.Len() == 0 || !strings.Contains(stderr.String(), "counter logtime.points.admitted ") {
			t.Fatalf("%s -metrics: %d schedule bytes, stderr %q", op, stdout.Len(), stderr.String())
		}
	}
}

// brokenAfter accepts n bytes, then fails every write.
type brokenAfter struct{ n, writes int }

var errClosed = errors.New("write on closed pipe")

func (w *brokenAfter) Write(b []byte) (int, error) {
	w.writes++
	if len(b) > w.n {
		w.n = 0
		return 0, errClosed
	}
	w.n -= len(b)
	return len(b), nil
}

// TestWriteErrorStops: when stdout fails mid-body, logpsched stops writing
// at that chunk and returns the error — streamed and compiled requests
// alike — which main turns into a non-zero exit.
func TestWriteErrorStops(t *testing.T) {
	for _, op := range []string{"broadcast", "reduce", "scan", "binomial"} {
		w := &brokenAfter{n: 100000}
		err := run([]string{"-op", op, "-P", "100000"}, w, io.Discard)
		if !errors.Is(err, errClosed) || !strings.Contains(err.Error(), "cannot write schedule JSON to stdout") {
			t.Fatalf("%s: err %v, want the stdout write error", op, err)
		}
		if w.writes != 2 {
			t.Fatalf("%s: %d writes, want 2 (one chunk, then the failed one)", op, w.writes)
		}
	}
}

// TestTextRenderWriteErrors: every text rendering — the schedule drawings,
// the structure renders and both -explain outputs — reports a failed stdout
// write instead of exiting 0.
func TestTextRenderWriteErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-op", "reduce", "-P", "1000", "-render", "gantt"},
		{"-op", "reduce", "-P", "1000", "-render", "table"},
		{"-op", "reduce", "-P", "1000", "-render", "svg"},
		{"-op", "broadcast", "-P", "64", "-render", "tree"},
		{"-op", "broadcast", "-P", "64", "-render", "dot"},
		{"-op", "summation", "-P", "8", "-L", "5", "-o", "2", "-g", "4", "-t", "28", "-render", "tree"},
		{"-op", "continuous", "-L", "3", "-P", "10", "-k", "8", "-render", "dot"},
		{"-op", "reduce", "-P", "1000", "-explain"},
		{"-op", "reduce", "-P", "1000", "-explain", "-render", "svg"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			err := run(args, &brokenAfter{}, io.Discard)
			if !errors.Is(err, errClosed) || !strings.Contains(err.Error(), "to stdout") {
				t.Fatalf("err %v, want the stdout write error", err)
			}
		})
	}
}

// TestClosedStdoutExitsNonZero runs the real binary's main with stdout a
// pipe whose reader goes away after the first bytes: the process must fail
// rather than report success.
func TestClosedStdoutExitsNonZero(t *testing.T) {
	if os.Getenv("LOGPSCHED_TEST_MAIN") == "1" {
		os.Args = append([]string{"logpsched"}, strings.Fields(os.Getenv("LOGPSCHED_TEST_ARGS"))...)
		main()
		os.Exit(0)
	}
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	cmd := osexec.Command(os.Args[0], "-test.run=^TestClosedStdoutExitsNonZero$")
	cmd.Env = append(os.Environ(), "LOGPSCHED_TEST_MAIN=1", "LOGPSCHED_TEST_ARGS=-op broadcast -P 1000000")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(out, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	out.Close()
	if err := cmd.Wait(); err == nil {
		t.Fatal("logpsched exited 0 after stdout closed mid-body")
	}
}
