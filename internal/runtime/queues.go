package runtime

import (
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

func dueBefore(a, b due) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

// dueHeap is the min-heap of pending visits, ordered by (at, id). A
// processor may hold several; the ready list's readyAt mark keeps one
// instant from running it twice.
type dueHeap struct {
	s    []due
	peak int
}

func (h *dueHeap) len() int { return len(h.s) }

func (h *dueHeap) peek() due { return h.s[0] }

func (h *dueHeap) push(d due) {
	h.s = append(h.s, d)
	h.peak = max(h.peak, len(h.s))
	s := h.s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !dueBefore(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *dueHeap) pop() due {
	s := h.s
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	h.s = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && dueBefore(s[l], s[least]) {
			least = l
		}
		if r < n && dueBefore(s[r], s[least]) {
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

func (h *dueHeap) reset(keep int) {
	h.s = slab.Reuse(h.s, keep, 1024)
	h.peak = 0
}
