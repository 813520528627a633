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
