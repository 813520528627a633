package schedule

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"logpopt/internal/logp"
)

// JSON interchange format, so schedules can be exported to (or imported
// from) external tooling — visualizers, other simulators, trace stores.
// The format is stable and versioned:
//
//	{"version":1,"machine":{"p":P,"l":L,"o":o,"g":g},"events":[
//	  {"proc":N,"time":T,"op":"send|recv|comp","item":I,"peer":Q,"dur":D},...]}
//
// on one line with a trailing newline; "peer" and "dur" are omitted when
// zero. The encoder below is hand-written (no reflection, no intermediate
// copy of the events); ReadJSON decodes through encoding/json with the
// jsonSchedule/jsonEvent shapes.

// jsonSchedule is the on-wire shape.
type jsonSchedule struct {
	Version int         `json:"version"`
	Machine jsonMachine `json:"machine"`
	Events  []jsonEvent `json:"events"`
}

type jsonMachine struct {
	P int       `json:"p"`
	L logp.Time `json:"l"`
	O logp.Time `json:"o"`
	G logp.Time `json:"g"`
}

type jsonEvent struct {
	Proc int       `json:"proc"`
	Time logp.Time `json:"time"`
	Op   string    `json:"op"` // "send" | "recv" | "comp"
	Item int       `json:"item"`
	Peer int       `json:"peer,omitempty"`
	Dur  logp.Time `json:"dur,omitempty"`
}

// chunkSize is StreamJSON's flush threshold. maxEventLen bounds one encoded
// event — at most six 20-byte integers (the op's "op(N)" spelling
// included) plus 53 bytes of keys and punctuation — with room left for
// jsonTail, so the chunk buffer never grows.
const (
	chunkSize   = 64 << 10
	maxEventLen = 6*20 + 64
)

const jsonTail = "]}\n"

// Seq is a schedule whose events are produced on demand rather than held:
// calling it yields the events in emission order until yield returns false.
// Every call must yield the same events, since AppendSeqJSON walks it twice.
// It has the shape of Go's iter.Seq[Event].
type Seq func(yield func(Event) bool)

// Seq yields the schedule's events in order.
func (s *Schedule) Seq() Seq {
	return func(yield func(Event) bool) {
		for _, e := range s.Events {
			if !yield(e) {
				return
			}
		}
	}
}

// Summary is what an encoder learns about a schedule as its events go by:
// the event count and the makespan, equal to len(s.Events) and
// s.Makespan() of the same schedule materialized.
type Summary struct {
	Events   int
	Makespan logp.Time
}

func (t *Summary) add(e *Event, o logp.Time) {
	t.Events++
	t.Makespan = max(t.Makespan, e.end(o))
}

// WriteJSON serializes the schedule, streaming it to w in chunks of about
// 64 KiB.
func (s *Schedule) WriteJSON(w io.Writer) error {
	_, err := StreamJSON(w, s.M, s.Seq())
	return err
}

// AppendJSON appends the WriteJSON bytes of the schedule to dst and returns
// the extended slice. An exact length pass sizes the result first, so dst
// grows at most once and AppendJSON(nil) returns a slice whose capacity
// equals its length.
func (s *Schedule) AppendJSON(dst []byte) []byte {
	dst, _ = AppendSeqJSON(dst, s.M, s.Seq())
	return dst
}

// StreamJSON writes the JSON of the schedule on m whose events seq yields,
// holding none of them: the head, then the events through a 64 KiB chunk
// buffer, then the tail. A failed write ends the walk — seq's yield returns
// false at that chunk boundary — and is returned.
func StreamJSON(w io.Writer, m logp.Machine, seq Seq) (Summary, error) {
	var (
		sum Summary
		err error
	)
	buf := appendHead(make([]byte, 0, chunkSize+maxEventLen), m)
	seq(func(e Event) bool {
		if len(buf) >= chunkSize {
			if _, err = w.Write(buf); err != nil {
				return false
			}
			buf = buf[:0]
		}
		buf = appendEvent(buf, &e, sum.Events > 0)
		sum.add(&e, m.O)
		return true
	})
	if err != nil {
		return sum, err
	}
	_, err = w.Write(append(buf, jsonTail...))
	return sum, err
}

// AppendSeqJSON appends the StreamJSON bytes to dst: a length pass over
// seq, one exact grow of dst, then an encode pass, so AppendSeqJSON(nil, ...)
// returns a slice whose capacity equals its length.
func AppendSeqJSON(dst []byte, m logp.Machine, seq Seq) ([]byte, Summary) {
	n, events := headLen(m)+len(jsonTail), 0
	seq(func(e Event) bool {
		n += eventLen(&e)
		events++
		return true
	})
	n += max(events-1, 0) // separating commas
	if cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	var sum Summary
	dst = appendHead(dst, m)
	seq(func(e Event) bool {
		dst = appendEvent(dst, &e, sum.Events > 0)
		sum.add(&e, m.O)
		return true
	})
	return append(dst, jsonTail...), sum
}

func appendHead(b []byte, m logp.Machine) []byte {
	b = append(b, `{"version":1,"machine":{"p":`...)
	b = strconv.AppendInt(b, int64(m.P), 10)
	b = append(b, `,"l":`...)
	b = strconv.AppendInt(b, m.L, 10)
	b = append(b, `,"o":`...)
	b = strconv.AppendInt(b, m.O, 10)
	b = append(b, `,"g":`...)
	b = strconv.AppendInt(b, m.G, 10)
	return append(b, `},"events":[`...)
}

func appendEvent(b []byte, e *Event, comma bool) []byte {
	if comma {
		b = append(b, ',')
	}
	b = append(b, `{"proc":`...)
	b = strconv.AppendInt(b, int64(e.Proc), 10)
	b = append(b, `,"time":`...)
	b = strconv.AppendInt(b, e.Time, 10)
	b = append(b, `,"op":"`...)
	b = append(b, e.Op.String()...)
	b = append(b, `","item":`...)
	b = strconv.AppendInt(b, int64(e.Item), 10)
	if e.Peer != 0 {
		b = append(b, `,"peer":`...)
		b = strconv.AppendInt(b, int64(e.Peer), 10)
	}
	if e.Dur != 0 {
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, e.Dur, 10)
	}
	return append(b, '}')
}

// headLen is len(appendHead(nil, m)).
func headLen(m logp.Machine) int {
	return len(`{"version":1,"machine":{"p":,"l":,"o":,"g":},"events":[`) +
		intLen(int64(m.P)) + intLen(m.L) + intLen(m.O) + intLen(m.G)
}

// eventLen is len(appendEvent(nil, e, false)).
func eventLen(e *Event) int {
	n := len(`{"proc":,"time":,"op":"","item":}`) +
		intLen(int64(e.Proc)) + intLen(e.Time) + len(e.Op.String()) + intLen(int64(e.Item))
	if e.Peer != 0 {
		n += len(`,"peer":`) + intLen(int64(e.Peer))
	}
	if e.Dur != 0 {
		n += len(`,"dur":`) + intLen(e.Dur)
	}
	return n
}

// intLen is len(strconv.AppendInt(nil, v, 10)).
func intLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// ReadJSON deserializes a schedule written by WriteJSON. The reader must
// hold exactly one document: anything but whitespace after it is an error.
func ReadJSON(r io.Reader) (*Schedule, error) {
	var js jsonSchedule
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		return nil, fmt.Errorf("schedule: decoding JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("schedule: decoding JSON: trailing data after the schedule")
	}
	if js.Version != 1 {
		return nil, fmt.Errorf("schedule: unsupported version %d", js.Version)
	}
	m := logp.Machine{P: js.Machine.P, L: js.Machine.L, O: js.Machine.O, G: js.Machine.G}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{M: m, Events: make([]Event, 0, len(js.Events))}
	for i, e := range js.Events {
		var op Op
		switch e.Op {
		case "send":
			op = OpSend
		case "recv":
			op = OpRecv
		case "comp":
			op = OpCompute
		default:
			return nil, fmt.Errorf("schedule: event %d has unknown op %q", i, e.Op)
		}
		s.Events = append(s.Events, Event{
			Proc: e.Proc, Time: e.Time, Op: op, Item: e.Item, Peer: e.Peer, Dur: e.Dur,
		})
	}
	return s, nil
}
