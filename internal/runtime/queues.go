package runtime

import (
	"cmp"
	"math/bits"
	"slices"

	"logpopt/internal/logp"
	"logpopt/internal/slab"
)

// fifo is the in-flight queue, a ring buffer. Every message arrives
// exactly o + L after the instant that sent it, and phase C pushes sends in
// nondecreasing instant order, so the queue is already in arrival order:
// arrivals pop from the head and nothing is ever rescanned. The ring grows
// only when full, so a recycled runtime replaying the same case again
// never reallocates it.
type fifo struct {
	buf  []Message // length zero or a power of two
	head int
	n    int
	peak int // high-water length since the last reset (watermark input)
}

func (q *fifo) len() int { return q.n }

func (q *fifo) peek() *Message { return &q.buf[q.head] }

func (q *fifo) push(m Message) {
	if q.n == len(q.buf) {
		grown := make([]Message, max(2*len(q.buf), 1024))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
	q.n++
	q.peak = max(q.peak, q.n)
}

func (q *fifo) pop() Message {
	m := q.buf[q.head]
	q.buf[q.head].Payload = nil // release the payload to the collector
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return m
}

func (q *fifo) reset(keep int) {
	for q.n > 0 {
		q.pop() // drop what a cut-short run left in flight, payloads included
	}
	if slab.Oversized(len(q.buf), keep, 1024) {
		q.buf = nil
	}
	q.head, q.peak = 0, 0
}

// compareRecv is a processor's reception order: by arrival, then item,
// then sender. One sender starts at most one send per instant, so the key
// is total among messages to one destination.
func compareRecv(a, b Message) int {
	if a.Arrive != b.Arrive {
		return cmp.Compare(a.Arrive, b.Arrive)
	}
	if a.Item != b.Item {
		return cmp.Compare(a.Item, b.Item)
	}
	return cmp.Compare(a.From, b.From)
}

// recvQueue is a processor's receive queue, a slice FIFO read from head.
// Its arrivals come from the in-flight fifo, which pops them in
// nondecreasing Arrive but hands one instant's arrivals over in sender
// order. So, as in the simulator's in-flight queue, the messages that
// share the front's Arrive form a run that is sorted by compareRecv before
// the first pop from it, and the pop order is compareRecv order. The first
// ready messages are the sorted front run (0 until a pop sorts it). No push
// joins a sorted run: a pop at instant t comes after every arrival due by
// t was pushed, and later arrivals are due after t.
type recvQueue struct {
	buf         []Message
	head, ready int32
}

func (q *recvQueue) len() int { return len(q.buf) - int(q.head) }

func (q *recvQueue) push(m Message) {
	if len(q.buf) == cap(q.buf) && 2*int(q.head) >= len(q.buf) {
		// At least half the slice is popped: slide the queue down instead
		// of growing it, so a queue that never empties stays bounded.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, m)
}

// pop removes and returns the first message in compareRecv order. It must
// only be called when len() > 0.
func (q *recvQueue) pop() Message {
	if q.ready == 0 {
		run := q.buf[q.head:]
		r := 1
		for r < len(run) && run[r].Arrive == run[0].Arrive {
			r++
		}
		slices.SortFunc(run[:r], compareRecv)
		q.ready = int32(r)
	}
	m := q.buf[q.head]
	q.buf[q.head] = Message{} // release the payload to the collector
	q.head++
	q.ready--
	if int(q.head) == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return m
}

// reset empties the queue, dropping what a cut-short run left queued
// (payloads included), and releases its slice when it has grown past 4x
// the keep messages the processor queued at most.
func (q *recvQueue) reset(keep int) {
	clear(q.buf[q.head:])
	q.buf = slab.Reuse(q.buf, keep, 64)
	q.head, q.ready = 0, 0
}

// due is a pending visit to processor id at time at: a wake its handler
// asked for, or (wake false) a buffered processor's receive port freeing.
type due struct {
	at   logp.Time
	id   int32
	wake bool
}

// dueQueue holds the pending visits in a monotone radix queue. Every visit
// is pushed for a time later than the current instant (a wake only when at
// > now, a port-free check at max(now+1, ...)), and the clock never goes
// back, so no visit is ever earlier than the last instant popped, last.
// Bucket i holds the visits whose time first differs from last at bit i-1
// (bucket 0: equal to last), so a visit only moves to lower buckets, and
// each bucket keeps its minimum, which min reads without moving last. A
// processor may hold several visits; the ready list's readyAt mark keeps
// one instant from running it twice.
type dueQueue struct {
	buckets [64][]due
	mins    [64]logp.Time
	used    uint64 // bit i set when bucket i is non-empty
	last    logp.Time
	n, peak int
}

func (q *dueQueue) len() int { return q.n }

// bucket is the bucket of a visit at time at: one plus the highest bit
// where at differs from last. Times are never negative, so it is below 64.
func (q *dueQueue) bucket(at logp.Time) int {
	return bits.Len64(uint64(at ^ q.last))
}

func (q *dueQueue) push(d due) {
	q.put(q.bucket(d.at), d)
	q.n++
	q.peak = max(q.peak, q.n)
}

func (q *dueQueue) put(i int, d due) {
	if q.used&(1<<i) == 0 || d.at < q.mins[i] {
		q.mins[i] = d.at
	}
	q.buckets[i] = append(q.buckets[i], d)
	q.used |= 1 << i
}

// min returns the earliest pending time. It must only be called when len()
// > 0.
func (q *dueQueue) min() logp.Time {
	return q.mins[bits.TrailingZeros64(q.used)]
}

// popMin removes and returns every visit due at the earliest pending time,
// in no particular order. The slice is valid until the next push or popMin.
// It must only be called when len() > 0.
func (q *dueQueue) popMin() []due {
	if i := bits.TrailingZeros64(q.used); i > 0 {
		// Move the first non-empty bucket's visits below it: with last at
		// their minimum, they now first differ from last under bit i-1.
		q.last = q.mins[i]
		b := q.buckets[i]
		q.buckets[i], q.used = b[:0], q.used&^(1<<i)
		for _, d := range b {
			q.put(q.bucket(d.at), d)
		}
	}
	b := q.buckets[0]
	q.buckets[0], q.used = b[:0], q.used&^1
	q.n -= len(b)
	return b
}

func (q *dueQueue) reset(keep int) {
	for i := range q.buckets {
		q.buckets[i] = slab.Reuse(q.buckets[i], keep, 1024)
	}
	q.used, q.last, q.n, q.peak = 0, 0, 0, 0
}
