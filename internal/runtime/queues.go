package runtime

import (
	"math/bits"

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

// msgBefore orders a processor's queued arrivals: by arrival, then item,
// then sender. One sender starts at most one send per instant, so the key
// is total among messages to one destination.
func msgBefore(a, b *Message) bool {
	if a.Arrive != b.Arrive {
		return a.Arrive < b.Arrive
	}
	if a.Item != b.Item {
		return a.Item < b.Item
	}
	return a.From < b.From
}

// msgHeap is a processor's receive queue: a binary min-heap in msgBefore
// order, so the discipline takes the next reception in O(log n) instead of
// re-sorting the queue every instant.
type msgHeap []Message

func (h *msgHeap) push(m Message) {
	*h = append(*h, m)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !msgBefore(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *msgHeap) pop() Message {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = Message{}
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && msgBefore(&s[l], &s[least]) {
			least = l
		}
		if r < n && msgBefore(&s[r], &s[least]) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
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
