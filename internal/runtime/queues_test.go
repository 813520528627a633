package runtime

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"logpopt/internal/logp"
)

// refDue is the reference for dueQueue: a container/heap min-heap of
// visits by time.
type refDue []due

func (h refDue) Len() int           { return len(h) }
func (h refDue) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refDue) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refDue) Push(x any)        { *h = append(*h, x.(due)) }
func (h *refDue) Pop() any {
	old := *h
	d := old[len(old)-1]
	*h = old[:len(old)-1]
	return d
}

func compareDue(a, b due) int {
	switch {
	case a.id != b.id:
		return int(a.id - b.id)
	case a.wake == b.wake:
		return 0
	case b.wake:
		return -1
	}
	return 1
}

// dueScript drives a dueQueue and the reference heap through one
// runtime-shaped sequence read from b and fails at the first instant where
// they disagree on the next due time or on the set of visits due. Each byte
// is an operation:
//
//   - a push at the current instant (three more bytes: processor, whether
//     it is a wake, and how far ahead), always later than the clock, as
//     collect pushes wakes and port-free checks; distances run from one
//     cycle to 2⁴⁰, so visits start in every bucket range and many tie;
//   - a step, as Run steps: compare the next due time, jump the clock
//     there (or one cycle on, as Step alone does), and pop every visit
//     due;
//   - a reset, as Runtime.Reset does between runs, that starts the clock
//     again at 0.
func dueScript(t *testing.T, b []byte) {
	t.Helper()
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	var q dueQueue
	var ref refDue
	var now logp.Time
	var got, want []due
	for op := 0; len(b) > 0; op++ {
		switch c := next(); {
		case c < 160:
			d := due{id: int32(next() % 8), wake: next()%2 == 0}
			ahead := next()
			d.at = now + 1 + logp.Time(ahead%8)
			if ahead >= 224 {
				d.at = now + 1<<(ahead%41)
			}
			q.push(d)
			heap.Push(&ref, d)
		case c < 250:
			if q.len() != len(ref) {
				t.Fatalf("op %d at %d: queue holds %d visits, heap %d", op, now, q.len(), len(ref))
			}
			if len(ref) == 0 {
				now++
				continue
			}
			if q.min() != ref[0].at {
				t.Fatalf("op %d at %d: queue's next due %d, heap's %d", op, now, q.min(), ref[0].at)
			}
			if c%4 == 0 {
				now++ // a Step with nothing due is allowed; it pops nothing
			} else {
				now = ref[0].at
			}
			got, want = got[:0], want[:0]
			for q.len() > 0 && q.min() <= now {
				got = append(got, q.popMin()...)
			}
			for len(ref) > 0 && ref[0].at <= now {
				want = append(want, heap.Pop(&ref).(due))
			}
			slices.SortFunc(got, compareDue)
			slices.SortFunc(want, compareDue)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d at %d: queue pops %v, heap pops %v", op, now, got, want)
			}
		default:
			q.reset(next())
			ref, now = ref[:0], 0
		}
	}
}

// TestDueQueueMatchesHeap is the radix queue's property: on sequences
// shaped like the runtime's, it reports the heap's next due time and pops
// the same visits at every instant.
func TestDueQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		b := make([]byte, 1+rng.Intn(600))
		rng.Read(b)
		dueScript(t, b)
	}
}

// FuzzDueQueue checks the radix queue against the reference heap on fuzzed
// scripts (see dueScript).
func FuzzDueQueue(f *testing.F) {
	// Ties at one instant, a far visit, steps that jump and steps that
	// crawl, and a reset.
	f.Add([]byte{0, 1, 0, 2, 0, 1, 3, 1, 2, 1, 3, 0, 0, 250, 161, 164, 4, 1, 1, 255, 9, 0, 2, 0, 5, 161})
	f.Fuzz(dueScript)
}

// refRecv is the reference for recvQueue: a container/heap min-heap of
// messages in compareRecv order.
type refRecv []Message

func (h refRecv) Len() int           { return len(h) }
func (h refRecv) Less(i, j int) bool { return compareRecv(h[i], h[j]) < 0 }
func (h refRecv) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refRecv) Push(x any)        { *h = append(*h, x.(Message)) }
func (h *refRecv) Pop() any {
	old := *h
	m := old[len(old)-1]
	*h = old[:len(old)-1]
	return m
}

// recvScript drives four processors' receive queues and a reference heap
// each through one runtime-shaped sequence read from b, and fails at the
// first pop or length where they differ. The first byte picks the
// discipline (even: Strict, odd: Buffered). Each further byte is an
// operation:
//
//   - a burst of up to 16 arrivals at the current instant, as collectReady
//     pushes them (three more bytes seed their senders, destinations and
//     items, from small ranges, so one instant's arrivals come in no
//     particular (Item, From) order and several reach one queue; Arrive
//     is the instant, so it never decreases);
//   - a step, as runChunk's discipline runs after the instant's arrivals:
//     Strict drains every queue, Buffered pops one message from each
//     queue whose port is free (a queue is busy in some instants); then
//     the clock moves on;
//   - a reset, as Runtime.Reset does between runs, that starts the clock
//     again at 0.
func recvScript(t *testing.T, b []byte) {
	t.Helper()
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	var qs [4]recvQueue
	var refs [4]refRecv
	check := func(op, d int, want Message) {
		t.Helper()
		if got := qs[d].pop(); got != want {
			t.Fatalf("op %d: queue %d pops %+v, heap pops %+v", op, d, got, want)
		}
	}
	strict := next()%2 == 0
	var now logp.Time
	for op := 0; len(b) > 0; op++ {
		switch c := next(); {
		case c < 150:
			from, to, item := next(), next(), next()
			for j := range 1 + c%16 {
				d := (to + j*(1+to%3)) % 4
				m := Message{
					From: (from + j*5) % 12, To: d, Item: (item + j*(item%4)) % 3,
					SentAt: now - 3, Arrive: now,
				}
				qs[d].push(m)
				heap.Push(&refs[d], m)
			}
		case c < 245:
			for d := range qs {
				switch {
				case strict:
					for len(refs[d]) > 0 {
						check(op, d, heap.Pop(&refs[d]).(Message))
					}
				case len(refs[d]) > 0 && (c+d)%3 != 0:
					check(op, d, heap.Pop(&refs[d]).(Message))
				}
			}
			now += logp.Time(1 + c%3)
		default:
			keep := next()
			for d := range qs {
				qs[d].reset(keep)
				refs[d] = refs[d][:0]
			}
			now = 0
		}
		for d := range qs {
			if qs[d].len() != len(refs[d]) {
				t.Fatalf("op %d: queue %d holds %d messages, heap %d", op, d, qs[d].len(), len(refs[d]))
			}
		}
	}
	for d := range qs {
		for len(refs[d]) > 0 {
			check(-1, d, heap.Pop(&refs[d]).(Message))
		}
		if qs[d].len() != 0 {
			t.Fatalf("queue %d holds %d messages after the heap drained", d, qs[d].len())
		}
	}
}

// TestRecvQueueMatchesHeap is the receive queue's property: on sequences
// shaped like the runtime's, it pops exactly what a min-heap in
// compareRecv order pops. Arrivals come in nondecreasing Arrive, so
// sorting each front run once gives the heap's order.
func TestRecvQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		b := make([]byte, 1+rng.Intn(800))
		rng.Read(b)
		recvScript(t, b)
	}
}

// FuzzRecvQueue checks the receive queue against the reference heap on
// fuzzed scripts (see recvScript).
func FuzzRecvQueue(f *testing.F) {
	// Buffered: two bursts at one instant with ties on one queue, steps
	// with busy ports, and a reset.
	f.Add([]byte{1, 7, 3, 0, 2, 5, 1, 1, 1, 150, 2, 4, 200, 201, 202, 250, 9, 3, 0, 1, 2, 160})
	// Strict: bursts, steps that drain, a far step.
	f.Add([]byte{0, 15, 2, 1, 0, 200, 9, 5, 3, 1, 244, 15, 7, 7, 7, 160, 161})
	f.Fuzz(recvScript)
}
