// Package obs is the repository's zero-dependency observability layer: a
// Tracer collecting Chrome trace-event records (viewable in Perfetto or
// chrome://tracing) and a Metrics registry of counters, gauges and
// histograms with a deterministic text snapshot.
//
// Overhead discipline: everything here is optional and nil-safe. Every
// Tracer method is a no-op on a nil *Tracer, so instrumented hot paths pay
// exactly one pointer check when tracing is off; code that builds argument
// lists should additionally guard with `if tr != nil` so the argument
// construction itself is skipped. Metrics handles are looked up once (at
// package init or struct construction) and hot loops accumulate into plain
// local variables, flushing one atomic add per operation, never per node.
//
// Time bases: trace timestamps are int64 microseconds. Wall-clock
// instrumentation (solvers, harnesses) uses Tracer.Now, microseconds since
// the tracer was created. Virtual-time instrumentation (the simulator and
// the runtime) passes LogP cycles directly — one cycle renders as
// one microsecond. The two kinds of track are kept apart by pid: each
// subsystem claims its own pid and labels it with NameProcess, so Perfetto
// shows them as separate processes and the mixed units never share a track.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// Arg is one key/value annotation on a trace event. Values may be strings,
// booleans, or any integer or float type; anything else is rendered with
// fmt and stored as a string.
type Arg struct {
	Key string
	Val any
}

// A is shorthand for constructing an Arg.
func A(key string, val any) Arg { return Arg{Key: key, Val: val} }

// event phases (Chrome trace-event "ph" values).
const (
	phComplete = 'X' // span with duration
	phInstant  = 'i'
	phCounter  = 'C'
	phMeta     = 'M'
)

type event struct {
	name     string
	ph       byte
	ts, dur  int64
	pid, tid int
	args     []Arg
}

// Sink consumes pre-encoded trace-event JSON records one at a time. It is
// declared structurally so obs stays dependency-free: trace.Emitter satisfies
// it. The record bytes are only valid for the duration of the call.
type Sink interface {
	Emit(rec []byte) error
}

// Tracer accumulates trace events in memory, or — after StreamTo — encodes
// each event as it is recorded and forwards it to a Sink, holding no span
// backlog. Create one with NewTracer and write it out once with
// WriteJSON/WriteFile (in-memory mode) or Close the sink (streaming mode).
// All methods are safe on a nil receiver (no-op), so a *Tracer can be
// threaded through APIs unconditionally and only checked where argument
// construction would otherwise cost.
//
// Tracer is safe for concurrent use; events are kept in insertion order.
type Tracer struct {
	mu       sync.Mutex
	start    time.Time
	events   []event
	sink     Sink
	streamed int
	scratch  bytes.Buffer
	sinkErr  error
	samplers map[int]*samplerState // per-pid keep/drop policy (see sample.go)
	dropped  int64
}

// NewTracer returns an empty tracer whose wall clock (Now) starts at zero.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// Now returns the wall-clock timestamp in microseconds since the tracer was
// created (0 on a nil tracer).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.start).Microseconds()
}

// Len returns the number of recorded events, including events already
// forwarded to a streaming sink.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events) + t.streamed
}

// StreamTo switches the tracer to streaming mode: every subsequently recorded
// event is encoded immediately and handed to s instead of being accumulated,
// so memory stays bounded regardless of run length. Events recorded before
// the call are flushed to s first, in order. The caller owns the sink's
// lifecycle (flush/close); the first sink error sticks and is returned by
// StreamErr, after which further events are dropped.
func (t *Tracer) StreamTo(s Sink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = s
	for i := range t.events {
		t.emitLocked(&t.events[i])
	}
	t.events = nil
}

// StreamErr reports the first error a streaming sink returned, if any.
func (t *Tracer) StreamErr() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}

func (t *Tracer) add(e event) {
	t.mu.Lock()
	if st, ok := t.samplers[e.pid]; ok && !st.keep(&e) {
		t.dropped++
		t.mu.Unlock()
		return
	}
	if t.sink != nil {
		t.emitLocked(&e)
	} else {
		t.events = append(t.events, e)
	}
	t.mu.Unlock()
}

// emitLocked encodes one event into the reusable scratch buffer and forwards
// it to the sink. Caller holds t.mu.
func (t *Tracer) emitLocked(e *event) {
	t.scratch.Reset()
	writeEvent(&t.scratch, e)
	t.streamed++
	if err := t.sink.Emit(t.scratch.Bytes()); err != nil && t.sinkErr == nil {
		t.sinkErr = err
	}
}

// Span records a complete event: name ran on track (pid, tid) from ts for
// dur (both in microseconds / cycles).
func (t *Tracer) Span(pid, tid int, name string, ts, dur int64, args ...Arg) {
	if t == nil {
		return
	}
	t.add(event{name: name, ph: phComplete, ts: ts, dur: dur, pid: pid, tid: tid, args: args})
}

// Instant records a point event on track (pid, tid) at ts.
func (t *Tracer) Instant(pid, tid int, name string, ts int64, args ...Arg) {
	if t == nil {
		return
	}
	t.add(event{name: name, ph: phInstant, ts: ts, pid: pid, tid: tid, args: args})
}

// Counter records a sampled counter value at ts. Perfetto renders each
// counter name as its own graph under the pid.
func (t *Tracer) Counter(pid int, name string, ts, value int64) {
	if t == nil {
		return
	}
	t.add(event{name: name, ph: phCounter, ts: ts, pid: pid, args: []Arg{{Key: "value", Val: value}}})
}

// NameProcess labels a pid in the trace viewer.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.add(event{name: "process_name", ph: phMeta, pid: pid, args: []Arg{{Key: "name", Val: name}}})
}

// NameThread labels a (pid, tid) track in the trace viewer.
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.add(event{name: "thread_name", ph: phMeta, pid: pid, tid: tid, args: []Arg{{Key: "name", Val: name}}})
}

// WriteJSON emits the trace in Chrome trace-event JSON object form
// ({"traceEvents": [...]}), which both Perfetto and chrome://tracing load.
// The encoding is hand-rolled so output is deterministic (args keep their
// recorded order) and the package stays dependency-free. On a streaming
// tracer the backlog is empty — the sink received the events — so WriteJSON
// emits an empty document; close the sink instead.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b bytes.Buffer
	b.WriteString(`{"traceEvents":[`)
	for i := range t.events {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n")
		writeEvent(&b, &t.events[i])
	}
	b.WriteString("\n]}\n")
	_, err := w.Write(b.Bytes())
	return err
}

// WriteFile writes the trace to path (created or truncated).
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeEvent(b *bytes.Buffer, e *event) {
	b.WriteString(`{"name":`)
	writeString(b, e.name)
	fmt.Fprintf(b, `,"ph":"%c","ts":%d`, e.ph, e.ts)
	if e.ph == phComplete {
		fmt.Fprintf(b, `,"dur":%d`, e.dur)
	}
	if e.ph == phInstant {
		b.WriteString(`,"s":"t"`) // thread-scoped instant
	}
	fmt.Fprintf(b, `,"pid":%d,"tid":%d`, e.pid, e.tid)
	if len(e.args) > 0 {
		b.WriteString(`,"args":{`)
		for i, a := range e.args {
			if i > 0 {
				b.WriteByte(',')
			}
			writeString(b, a.Key)
			b.WriteByte(':')
			writeVal(b, a.Val)
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
}

func writeVal(b *bytes.Buffer, v any) {
	switch x := v.(type) {
	case string:
		writeString(b, x)
	case bool:
		b.WriteString(strconv.FormatBool(x))
	case int:
		b.WriteString(strconv.FormatInt(int64(x), 10))
	case int32:
		b.WriteString(strconv.FormatInt(int64(x), 10))
	case int64:
		b.WriteString(strconv.FormatInt(x, 10))
	case uint64:
		b.WriteString(strconv.FormatUint(x, 10))
	case float64:
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	default:
		writeString(b, fmt.Sprintf("%v", x))
	}
}

// writeString writes a JSON string literal with the minimal escaping the
// trace format needs (quotes, backslashes, control bytes).
func writeString(b *bytes.Buffer, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(b, `\u%04x`, c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}
