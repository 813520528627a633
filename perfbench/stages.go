package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	goruntime "runtime"
	"time"

	"logpopt/internal/conform"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs"
	"logpopt/internal/obs/causal"
	"logpopt/internal/runtime"
	"logpopt/internal/serve/sched"
	"logpopt/internal/sim"
)

// harnessPID is the trace process track of the in-process stage spans.
const harnessPID = 9

// digest identifies a response body or a CLI's stdout: its exact length
// and SHA-256, so equal digests mean equal bytes without holding every
// reference body in memory.
type digest struct {
	Len int64
	Sum [sha256.Size]byte
}

func digestOf(b []byte) digest {
	return digest{Len: int64(len(b)), Sum: sha256.Sum256(b)}
}

// digestWriter digests a stream as it is written, e.g. a child's stdout.
type digestWriter struct {
	n int64
	h hash.Hash
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (w *digestWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return w.h.Write(b)
}

func (w *digestWriter) digest() digest {
	d := digest{Len: w.n}
	w.h.Sum(d.Sum[:0])
	return d
}

// stages times calls into the repository's layers, one stage per layer
// boundary, and records each call as a span on tr (nil records nothing:
// obs.Tracer is nil-safe). Totals are µs per stage name.
type stages struct {
	tr     *obs.Tracer
	tid    int
	total  map[string]float64
	calls  map[string]int
	allocs uint64 // heap objects allocated inside runtime.replay
	events int64  // events executed by sim.replay
	bytes  int64  // bytes written by schedule.encode
}

func newStages(tr *obs.Tracer) *stages {
	if tr != nil {
		tr.NameProcess(harnessPID, "perfbench in-process stages (wall µs)")
	}
	return &stages{tr: tr, total: map[string]float64{}, calls: map[string]int{}}
}

func (st *stages) time(name string, f func()) {
	ts := st.tr.Now()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	st.tr.Span(harnessPID, st.tid, name, ts, d.Microseconds())
	st.total[name] += us(d)
	st.calls[name]++
}

// merge adds o's totals and counts into st.
func (st *stages) merge(o *stages) {
	for name, t := range o.total {
		st.total[name] += t
		st.calls[name] += o.calls[name]
	}
	st.allocs += o.allocs
	st.events += o.events
	st.bytes += o.bytes
}

// mean is the mean µs per call of one stage (0 if it never ran).
func (st *stages) mean(name string) float64 {
	if st.calls[name] == 0 {
		return 0
	}
	return st.total[name] / float64(st.calls[name])
}

// solve answers req in-process through the layers the daemon and logpsched
// run: canonicalize; the broadcast tree from the logtime tables plus its
// materialization, or the heap search below the 512 threshold; compile on
// that prebuilt tree; encode. The encoded bytes are the reference every
// served body and logpsched stdout is checked against.
func (st *stages) solve(req sched.Request) (digest, error) {
	var (
		key  sched.Key
		tree *core.Tree
		c    *sched.Compiled
		buf  bytes.Buffer
		err  error
	)
	st.time("solve", func() {
		st.time("sched.canonicalize", func() { key, err = sched.Canonicalize(req, "auto") })
		if err != nil {
			return
		}
		m := key.Machine()
		switch key.Constructor {
		case "logtime":
			var b *logtime.Builder
			st.time("logtime.tables", func() {
				if b, err = logtime.NewBuilder(m); err == nil {
					b.BTime(m.P)
				}
			})
			if err != nil {
				return
			}
			st.time("logtime.tree", func() { tree = b.Tree(m.P) })
		case "search":
			st.time("core.search_tree", func() { tree = core.OptimalTree(m, m.P) })
		}
		prebuilt := func(logp.Machine, int) *core.Tree { return tree }
		st.time("sched.compile", func() { c, err = sched.Compile(m, key.Op, key.K, key.Deadline, prebuilt) })
		if err != nil {
			return
		}
		st.time("schedule.encode", func() { err = c.S.WriteJSON(&buf) })
	})
	if err != nil {
		return digest{}, fmt.Errorf("in-process solve of %+v: %w", req, err)
	}
	st.bytes += int64(buf.Len())
	return digestOf(buf.Bytes()), nil
}

// replay runs logpconform -scale's cases in-process on every backend it
// diffs: the strict and buffered simulator, the strict and buffered
// runtime, the validator, plus the causal analysis of each case.
func (st *stages) replay(scale int) error {
	var (
		cases []conform.Case
		err   error
		ms    goruntime.MemStats
	)
	st.time("replay", func() {
		st.time("case.build", func() { cases = conform.ScaleCases(scale) })
		for _, c := range cases {
			for _, mode := range []sim.Mode{sim.Strict, sim.Buffered} {
				var eng *sim.Engine
				var rep sim.Report
				st.time("sim.replay", func() { eng, rep = sim.Run(c.S, mode, c.Origins) })
				st.events += int64(len(eng.Executed().Events))
				if len(rep.Violations) > 0 && err == nil {
					err = fmt.Errorf("%s: sim mode %d: %v", c.Name, mode, rep.Violations[0])
				}
			}
			for _, mode := range []runtime.Mode{runtime.Strict, runtime.Buffered} {
				goruntime.ReadMemStats(&ms)
				before := ms.Mallocs
				var rt *runtime.Runtime
				var rerr error
				st.time("runtime.replay", func() {
					if rt, rerr = runtime.New(c.S.M, mode, runtime.ReplayHandlers(c.S, c.Origins)); rerr != nil {
						return
					}
					rt.Run(runtime.Horizon(c.S))
					for limit := runtime.DrainHorizon(c.S); rt.Pending() && rt.Now() < limit; {
						rt.Step()
					}
				})
				goruntime.ReadMemStats(&ms)
				st.allocs += ms.Mallocs - before
				if rerr == nil && len(rt.Violations()) > 0 {
					rerr = fmt.Errorf("violation %v", rt.Violations()[0])
				}
				if rerr != nil && err == nil {
					err = fmt.Errorf("%s: runtime mode %d: %w", c.Name, mode, rerr)
				}
			}
			st.time("schedule.validate", func() {
				if vs := (conform.ValidatorBackend{}).Replay(c).Violations; len(vs) > 0 && err == nil {
					err = fmt.Errorf("%s: validator: %v", c.Name, vs[0])
				}
			})
			st.time("causal.analyze", func() { causal.Analyze(c.S, c.Origins) })
		}
	})
	return err
}
