package sim

import (
	"cmp"
	"slices"
	"sort"

	"logpopt/internal/slab"
)

// compareFlight is the in-flight order: by arrival, then destination, item
// and sender. One sender starts at most one send per instant, so the order
// is total.
func compareFlight(a, b Msg) int {
	if a.Arrive != b.Arrive {
		return cmp.Compare(a.Arrive, b.Arrive)
	}
	if a.To != b.To {
		return cmp.Compare(a.To, b.To)
	}
	if a.Item != b.Item {
		return cmp.Compare(a.Item, b.Item)
	}
	return cmp.Compare(a.From, b.From)
}

// flightQueue is the engine's in-flight message store, kept in arrival
// order. Every message arrives exactly o + L after the instant that sent
// it, and the clock never goes back, so Send appends messages in
// nondecreasing Arrive. The messages that share one Arrive (one send
// instant) form a run; before the first pop from a run, the run is sorted
// by compareFlight. compareFlight is total and orders by Arrive first, so
// the pop order is exactly a min-heap's, at the cost of one sort per send
// instant instead of a heap walk per message.
//
// The queue is a ring buffer that grows only when full, so a recycled
// engine replaying the same case again never reallocates it. The first
// ready messages are the front run, already sorted (0 until a peek or pop
// sorts it); a push that joins the front run sets ready back to 0, so the
// next peek sorts the grown run.
type flightQueue struct {
	buf     []Msg // length zero or a power of two
	head, n int
	ready   int
	peak    int // high-water length since the last reset (watermark input)
}

// reset empties the queue, releasing its buffer when it has grown to more
// than 4x the keep messages the retain watermark asks for (so one huge run
// does not pin its memory for a whole sweep).
func (q *flightQueue) reset(keep int) {
	if slab.Oversized(len(q.buf), keep, 1024) {
		q.buf = nil
	}
	q.head, q.n, q.ready, q.peak = 0, 0, 0, 0
}

func (q *flightQueue) len() int { return q.n }

// at returns the i-th message from the front.
func (q *flightQueue) at(i int) *Msg { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// peek returns the minimal in-flight message. It must only be called when
// len() > 0.
func (q *flightQueue) peek() Msg {
	if q.ready == 0 {
		q.sortRun()
	}
	return q.buf[q.head]
}

// pop removes and returns the minimal message. It must only be called
// when len() > 0.
func (q *flightQueue) pop() Msg {
	m := q.peek()
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.ready--
	return m
}

func (q *flightQueue) push(m Msg) {
	if q.n == len(q.buf) {
		grown := make([]Msg, max(2*len(q.buf), 64))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	i := q.n
	if i > 0 && m.Arrive < q.at(i-1).Arrive {
		// Only an arrival that wrapped past the int64 range comes in behind
		// the tail; it goes where Arrive order puts it.
		i = sort.Search(q.n, func(j int) bool { return q.at(j).Arrive > m.Arrive })
		for j := q.n; j > i; j-- {
			*q.at(j) = *q.at(j - 1)
		}
	}
	*q.at(i) = m
	q.n++
	q.peak = max(q.peak, q.n)
	if m.Arrive == q.buf[q.head].Arrive {
		q.ready = 0 // m joined the front run: sort it again
	}
}

// sortRun sorts the front run, the messages that share the earliest
// Arrive, by compareFlight. A run that straddles the end of the ring is
// first rotated to the start, which happens at most once per pass of the
// head around the ring.
func (q *flightQueue) sortRun() {
	at := q.buf[q.head].Arrive
	r := 1
	for r < q.n && q.at(r).Arrive == at {
		r++
	}
	if r > 1 {
		if q.head+r > len(q.buf) {
			slices.Reverse(q.buf[:q.head])
			slices.Reverse(q.buf[q.head:])
			slices.Reverse(q.buf)
			q.head = 0
		}
		slices.SortFunc(q.buf[q.head:q.head+r], compareFlight)
	}
	q.ready = r
}
