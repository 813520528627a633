package schedule

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
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
	b = appendInt(b, int64(m.P))
	b = append(b, `,"l":`...)
	b = appendInt(b, m.L)
	b = append(b, `,"o":`...)
	b = appendInt(b, m.O)
	b = append(b, `,"g":`...)
	b = appendInt(b, m.G)
	return append(b, `},"events":[`...)
}

func appendEvent(b []byte, e *Event, comma bool) []byte {
	if comma {
		b = append(b, `,{"proc":`...)
	} else {
		b = append(b, `{"proc":`...)
	}
	b = appendInt(b, int64(e.Proc))
	b = append(b, `,"time":`...)
	b = appendInt(b, e.Time)
	switch e.Op {
	case OpSend:
		b = append(b, `,"op":"send","item":`...)
	case OpRecv:
		b = append(b, `,"op":"recv","item":`...)
	default:
		b = append(b, `,"op":"`...)
		b = append(b, e.Op.String()...)
		b = append(b, `","item":`...)
	}
	b = appendInt(b, int64(e.Item))
	if e.Peer != 0 {
		b = append(b, `,"peer":`...)
		b = appendInt(b, int64(e.Peer))
	}
	if e.Dur != 0 {
		b = append(b, `,"dur":`...)
		b = appendInt(b, e.Dur)
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
	if v < 0 {
		return 1 + digits(-uint64(v))
	}
	return digits(uint64(v))
}

// pow10 holds 10^i for every i whose power fits in a uint64.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// digits is the number of decimal digits of u. With x = u|1 (same digits,
// and 0 counts as one), bits.Len64(x)*1233>>12 (1233/4096 ≈ log10 2) is
// floor(log10 x) or one more; the table settles which.
func digits(u uint64) int {
	x := u | 1
	t := bits.Len64(x) * 1233 >> 12
	if x < pow10[t] {
		return t
	}
	return t + 1
}

// pairs holds "00" through "99", two bytes per value.
const pairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendInt is strconv.AppendInt(b, v, 10) without the scratch buffer and
// copy: it extends b by v's digit count and writes the digits into place
// from the last, two at a time. Negative values, and a b without room for
// the digits, take strconv's path.
func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		return strconv.AppendInt(b, v, 10)
	}
	if v < 10 {
		return append(b, byte('0'+v))
	}
	u, n := uint64(v), len(b)
	k := digits(u)
	if cap(b)-n < k {
		return strconv.AppendInt(b, v, 10)
	}
	b = b[:n+k]
	i := n + k
	for u >= 100 {
		r := u % 100
		u /= 100
		i -= 2
		b[i], b[i+1] = pairs[2*r], pairs[2*r+1]
	}
	if u >= 10 {
		b[i-2], b[i-1] = pairs[2*u], pairs[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
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
