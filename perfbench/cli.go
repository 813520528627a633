package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"time"

	"logpopt/internal/obs"
	"logpopt/internal/serve/sched"
)

// invocation is one timed child run.
type invocation struct {
	wall time.Duration // exec to exit, stdout fully drained
	rss  float64       // the child's own peak RSS, MiB
	err  error
}

// invoke runs one CLI child to completion with stdout streamed to w.
func (e *env) invoke(w io.Writer, name string, args ...string) invocation {
	cmd := e.command(name, args...)
	cmd.Stdout = w
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	inv := invocation{wall: time.Since(t0), rss: rssMiB(cmd.ProcessState)}
	if err != nil {
		inv.err = fmt.Errorf("%s %v: %w: %s", name, args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return inv
}

// startup is the CLI workloads' set-up time: the median wall time of
// quickSetups invocations on a trivial input, i.e. what every invocation pays
// before it does the workload's work.
func (e *env) startup(name string, args ...string) (float64, error) {
	var walls []float64
	for i := 0; i < quickSetups; i++ {
		inv := e.invoke(io.Discard, name, args...)
		if inv.err != nil {
			return 0, inv.err
		}
		walls = append(walls, inv.wall.Seconds())
	}
	return median(walls), nil
}

// cliRun is the shape both CLI workloads share: n timed invocations, each
// checked by check, then the end-to-end metrics or, traced, the stage pass
// run twice (untraced, then with spans) against the median invocation.
func (e *env) cliRun(out *result, setup float64, n int, run func() invocation, stagePass func(*stages) error) error {
	var walls, rss []float64
	for i := 0; i < n; i++ {
		inv := run()
		out.Attempted++
		if inv.err != nil {
			out.Failed++
			out.problem(inv.err)
		}
		walls = append(walls, ms(inv.wall))
		rss = append(rss, inv.rss)
	}
	if !e.trace {
		out.metric("setup_s", setup, "s")
		out.metric("throughput_per_s", blockRate(walls, 1), "1/s")
		out.metric("latency_p50_ms", median(walls), "ms")
		out.metric("latency_p90_ms", quantile(walls, 0.9), "ms")
		out.metric("peak_rss_mb", median(rss), "MiB")
		return nil
	}
	plain := newStages(nil)
	if err := stagePass(plain); err != nil {
		return err
	}
	tr := e.tracer()
	st := newStages(tr)
	if err := stagePass(st); err != nil {
		return err
	}
	if err := e.writeTrace(tr); err != nil {
		return err
	}
	root := "solve"
	if st.calls[root] == 0 {
		root = "replay"
	}
	var stageUS float64
	for name, t := range st.total {
		if name != root {
			stageUS += t
		}
	}
	out.metric("trace.overhead_frac", st.total[root]/plain.total[root]-1, "frac")
	out.metric("stage.unaccounted_frac", 1-stageUS/1e3/median(walls), "frac")
	e.solveMetrics(st, out)
	return nil
}

// runOffline is offline_1e6: logpsched compiling a P-processor broadcast
// to JSON on stdout, piped into the harness and checked against the same
// compile done in-process.
func (e *env) runOffline(n int, out *result) error {
	setup, err := e.startup("logpsched", "-op", "broadcast", "-P", "2", "-render", "json")
	if err != nil {
		return err
	}
	req := sched.Request{Op: "broadcast", P: e.sizes.offlineP, L: 6, O: 2, G: 4, K: 1}
	want, err := newStages(nil).solve(req)
	if err != nil {
		return err
	}
	debug.FreeOSMemory()
	e.detail["stdout_bytes"] = want.Len
	args := []string{"-op", "broadcast", "-P", strconv.Itoa(e.sizes.offlineP), "-render", "json"}
	run := func() invocation {
		w := newDigestWriter()
		inv := e.invoke(w, "logpsched", args...)
		if got := w.digest(); inv.err == nil && got != want {
			inv.err = fmt.Errorf("logpsched stdout %d bytes sha256 %x, in-process compile %d bytes sha256 %x",
				got.Len, got.Sum[:8], want.Len, want.Sum[:8])
		}
		return inv
	}
	return e.cliRun(out, setup, n, run, func(st *stages) error {
		_, err := st.solve(req)
		debug.FreeOSMemory()
		return err
	})
}

// runReplay is replay_1e5: logpconform's scale cases replayed on every
// backend and diffed, which must exit 0 and report that the cases conform.
func (e *env) runReplay(n int, out *result) error {
	setup, err := e.startup("logpconform", "-paper=false", "-seeds", "0", "-scale", "2")
	if err != nil {
		return err
	}
	args := []string{"-paper=false", "-seeds", "0", "-scale", strconv.Itoa(e.sizes.replayScale)}
	run := func() invocation {
		var w bytes.Buffer
		inv := e.invoke(&w, "logpconform", args...)
		if inv.err == nil && !bytes.Contains(w.Bytes(), []byte("cases conform")) {
			inv.err = fmt.Errorf("logpconform printed %q, want a line saying the cases conform", w.String())
		}
		return inv
	}
	return e.cliRun(out, setup, n, run, func(st *stages) error {
		err := st.replay(e.sizes.replayScale)
		debug.FreeOSMemory()
		return err
	})
}

// writeTrace writes the in-process spans as a Perfetto-loadable file in the
// work directory.
func (e *env) writeTrace(tr *obs.Tracer) error {
	path := e.work + string(os.PathSeparator) + e.workload + "-trace.json"
	e.detail["trace_file"] = path
	return tr.WriteFile(path)
}
