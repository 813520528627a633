package logtime_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"runtime"
	"sync"
	"testing"

	"logpopt/internal/combine"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/schedule"
)

// streamOps pairs every tree-walk collective with its materialized oracle:
// the schedule expanded from a tree, which WriteJSON then encodes.
var streamOps = []struct {
	name   string
	op     logtime.Collective
	oracle func(tr *core.Tree) *schedule.Schedule
}{
	{"broadcast", logtime.Broadcast, func(tr *core.Tree) *schedule.Schedule {
		s, err := core.TreeSchedule(tr, 0, nil, 0)
		if err != nil {
			panic(err)
		}
		return s
	}},
	{"reduce", logtime.Reduce, combine.ReduceScheduleWith},
	{"scan", logtime.Scan, combine.ScanScheduleWith},
}

// streamShapes sweeps the machine shapes the walk must get right: the
// paper's machine, o = 0 (postal and not), g < o, g = o, a latency far above
// the gap (wide fan-out at every node), and a gap far above d.
var streamShapes = []logp.Machine{
	logp.MustNew(1, 6, 2, 4),  // Figure 1
	logp.Postal(1, 1),         // o = 0, binomial regime
	logp.MustNew(1, 3, 0, 2),  // o = 0, g > 1
	logp.MustNew(1, 6, 3, 1),  // g < o: stride = o
	logp.MustNew(1, 5, 2, 2),  // g = o
	logp.MustNew(1, 40, 1, 1), // L >> g
	logp.MustNew(1, 1, 5, 17), // g > d
}

// hashWriter digests what is written to it, so P = 10⁶ bodies compare
// without being held.
type hashWriter struct {
	h hash.Hash
	n int64
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return w.h.Write(b)
}

func (w *hashWriter) sum() string { return fmt.Sprintf("%d/%x", w.n, w.h.Sum(nil)) }

// checkStream asserts that op's streamed schedule on m is byte-identical to
// the oracle's WriteJSON, through both sinks when the body is small enough
// to hold, and that the streamed summary matches the materialized schedule.
func checkStream(t *testing.T, m logp.Machine, op logtime.Collective, oracle *schedule.Schedule) {
	t.Helper()
	want := newHashWriter()
	if err := oracle.WriteJSON(want); err != nil {
		t.Fatal(err)
	}
	wantSum := schedule.Summary{Events: len(oracle.Events), Makespan: oracle.Makespan()}
	seq, b := logtime.Seq(m, op)
	if want := logtime.B(m, m.P); b != want {
		t.Fatalf("%v op %d: Seq's B(P) %d, want %d", m, op, b, want)
	}
	got := newHashWriter()
	sum, err := schedule.StreamJSON(got, m, seq)
	if err != nil {
		t.Fatal(err)
	}
	if got.sum() != want.sum() {
		t.Fatalf("%v op %d: StreamJSON %s, oracle %s", m, op, got.sum(), want.sum())
	}
	if sum != wantSum {
		t.Fatalf("%v op %d: StreamJSON summary %+v, oracle %+v", m, op, sum, wantSum)
	}
	if m.P > 100000 {
		return
	}
	body, sum := schedule.AppendSeqJSON(nil, m, seq)
	if !bytes.Equal(body, oracle.AppendJSON(nil)) {
		t.Fatalf("%v op %d: AppendSeqJSON differs from the oracle", m, op)
	}
	if cap(body) != len(body) {
		t.Fatalf("%v op %d: AppendSeqJSON(nil) cap %d, len %d", m, op, cap(body), len(body))
	}
	if sum != wantSum {
		t.Fatalf("%v op %d: AppendSeqJSON summary %+v, oracle %+v", m, op, sum, wantSum)
	}
}

// TestStreamMatchesOracle is the emitter's contract: for broadcast, reduce
// and scan, over the machine sweep, the streamed bytes are the oracle's.
// P = 10⁶ runs on the paper's machine only, and not under the race
// detector, which also keeps P = 10⁵ to the paper's machine.
func TestStreamMatchesOracle(t *testing.T) {
	for _, shape := range streamShapes {
		for _, p := range []int{1, 2, 3, 8, 300, 3000, 100000, 1000000} {
			paper := shape == streamShapes[0]
			if p == 1000000 && (!paper || raceEnabled || testing.Short()) {
				continue
			}
			if p == 100000 && (testing.Short() || raceEnabled && !paper) {
				continue
			}
			m := shape.WithP(p)
			for _, so := range streamOps {
				checkStream(t, m, so.op, so.oracle(logtime.Tree(m, m.P)))
			}
		}
	}
}

// failAfter accepts n bytes, then fails every write. offered counts every
// byte it was asked to write.
type failAfter struct {
	n, calls, failed, offered int
}

var errBroken = errors.New("broken pipe")

func (w *failAfter) Write(b []byte) (int, error) {
	w.calls++
	w.offered += len(b)
	if len(b) > w.n {
		w.failed++
		w.n = 0
		return 0, errBroken
	}
	w.n -= len(b)
	return len(b), nil
}

// TestStreamWriteErrorEndsWalk: a writer that fails mid-body ends the stream
// at that chunk: the error comes back, nothing more is written, and the walk
// yields no event past the chunk that could not be written.
func TestStreamWriteErrorEndsWalk(t *testing.T) {
	m := logp.ProfilePaperFig1.WithP(100000)
	for _, so := range streamOps {
		for _, limit := range []int{0, 100, 200000} {
			w := &failAfter{n: limit}
			events := 0
			seq, _ := logtime.Seq(m, so.op)
			_, err := schedule.StreamJSON(w, m, func(yield func(schedule.Event) bool) {
				seq(func(e schedule.Event) bool {
					events++
					return yield(e)
				})
			})
			if !errors.Is(err, errBroken) {
				t.Fatalf("%s limit %d: err %v, want %v", so.name, limit, err, errBroken)
			}
			if w.failed != 1 || w.calls != limit/(64<<10)+1 {
				t.Fatalf("%s limit %d: %d writes, %d failed; want one failed write, the last", so.name, limit, w.calls, w.failed)
			}
			// Every yielded event but the one whose flush failed reached
			// the writer, and no event encodes to fewer than 40 bytes.
			if max := w.offered/40 + 1; events > max {
				t.Fatalf("%s limit %d: walk yielded %d events for %d bytes written", so.name, limit, events, w.offered)
			}
		}
	}
}

// TestStreamAllocs: at P = 10⁶ each collective streams with under 1 MiB of
// allocation — the counting tables, the chunk buffer and the per-group
// child list, not the tree or the events.
func TestStreamAllocs(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("P = 10⁶ stream; allocation counts are not meaningful under the race detector")
	}
	m := logp.ProfilePaperFig1.WithP(1000000)
	for _, so := range streamOps {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seq, _ := logtime.Seq(m, so.op)
		sum, err := schedule.StreamJSON(io.Discard, m, seq)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Events < 2*(m.P-1) {
			t.Fatalf("%s: streamed %d events", so.name, sum.Events)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: streaming P=%d allocated %d bytes, want < 1 MiB", so.name, m.P, d)
		}
	}
}

// TestStreamConcurrent: eight goroutines stream different P on one shape at
// once. Every stream must equal the heap-search oracle: each walks tables of
// its own, so the streams share nothing.
func TestStreamConcurrent(t *testing.T) {
	shape := logp.MustNew(1, 9, 2, 3)
	ps := []int{100, 500, 900, 1300, 1700, 2100, 2500, 3000}
	want := make([][]string, len(ps))
	for i, p := range ps {
		m := shape.WithP(p)
		for _, so := range streamOps {
			w := newHashWriter()
			if err := so.oracle(core.OptimalTree(m, m.P)).WriteJSON(w); err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], w.sum())
		}
	}
	errs := make(chan error, len(ps)*len(streamOps))
	var streams sync.WaitGroup
	for i, p := range ps {
		streams.Add(1)
		go func() {
			defer streams.Done()
			m := shape.WithP(p)
			for j, so := range streamOps {
				w := newHashWriter()
				seq, _ := logtime.Seq(m, so.op)
				if _, err := schedule.StreamJSON(w, m, seq); err != nil {
					errs <- err
					return
				}
				if got := w.sum(); got != want[i][j] {
					errs <- fmt.Errorf("%s P=%d: stream %s, oracle %s", so.name, p, got, want[i][j])
				}
			}
		}()
	}
	streams.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzStreamTree: any tree-walk collective on any small machine streams the
// oracle's bytes, event count and makespan.
func FuzzStreamTree(f *testing.F) {
	f.Add(uint8(0), uint16(8), uint8(6), uint8(2), uint8(4))
	f.Add(uint8(1), uint16(300), uint8(1), uint8(0), uint8(1))
	f.Add(uint8(2), uint16(4999), uint8(5), uint8(3), uint8(1))
	f.Add(uint8(2), uint16(1), uint8(3), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, op uint8, p uint16, l, o, g uint8) {
		m := logp.MustNew(int(p)%5000+1, logp.Time(l%64)+1, logp.Time(o%16), logp.Time(g%16)+1)
		so := streamOps[int(op)%len(streamOps)]
		checkStream(t, m, so.op, so.oracle(logtime.Tree(m, m.P)))
	})
}
