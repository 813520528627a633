package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"logpopt/internal/logp"
)

// refFlight is the reference for flightQueue: a container/heap min-heap of
// messages in compareFlight order.
type refFlight []Msg

func (h refFlight) Len() int           { return len(h) }
func (h refFlight) Less(i, j int) bool { return compareFlight(h[i], h[j]) < 0 }
func (h refFlight) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refFlight) Push(x any)        { *h = append(*h, x.(Msg)) }
func (h *refFlight) Pop() any {
	old := *h
	m := old[len(old)-1]
	*h = old[:len(old)-1]
	return m
}

// flightScript drives a flightQueue and the reference heap through one
// engine-shaped sequence read from b and fails at the first pop, peek or
// length where they differ. The first bytes pick the delay o + L, now and
// then one large enough that later arrivals wrap past the int64 range.
// Each further byte is an operation:
//
//   - a burst of up to 16 sends at the current instant (three more bytes
//     seed their senders, destinations and items, from small ranges, so one
//     instant sends many messages that tie on Arrive and one destination is
//     reached by several (item, sender) pairs);
//   - a tick that advances the clock and pops every arrival due by then,
//     as TickTo does (the clock never goes back, so send instants are
//     nondecreasing);
//   - a peek, as Replay's lookahead does between instants, or as a caller
//     driving the engine by hand may do between two sends of one instant;
//   - a reset, as Engine.Reset does between runs, that starts the clock
//     again at 0.
func flightScript(t *testing.T, b []byte) {
	t.Helper()
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	var q flightQueue
	var ref refFlight
	delay := logp.Time(1 + next()%6)
	if next()%8 == 0 {
		delay = math.MaxInt64 - logp.Time(next()%16)
	}
	var now logp.Time
	for op := 0; len(b) > 0; op++ {
		switch c := next(); {
		case c < 150:
			from, to, item := next(), next(), next()
			for j := range 1 + c%16 {
				m := Msg{
					From: (from + j/4) % 8, To: (to + j) % 4, Item: (item + j/2) % 3,
					SendAt: now, Arrive: now + delay,
				}
				q.push(m)
				heap.Push(&ref, m)
			}
		case c < 240:
			now += logp.Time(1 + c%4)
			for len(ref) > 0 && ref[0].Arrive <= now {
				if q.len() == 0 || q.peek().Arrive > now {
					t.Fatalf("op %d at %d: queue has nothing due, heap has %+v", op, now, ref[0])
				}
				if got, want := q.pop(), heap.Pop(&ref).(Msg); got != want {
					t.Fatalf("op %d at %d: queue pops %+v, heap pops %+v", op, now, got, want)
				}
			}
			if q.len() > 0 && q.peek().Arrive <= now {
				t.Fatalf("op %d at %d: queue still has %+v due", op, now, q.peek())
			}
		case c < 250:
			if q.len() > 0 && q.peek() != ref[0] {
				t.Fatalf("op %d: queue peeks %+v, heap peeks %+v", op, q.peek(), ref[0])
			}
		default:
			q.reset(next())
			ref, now = ref[:0], 0
		}
		if q.len() != len(ref) {
			t.Fatalf("op %d: queue holds %d messages, heap %d", op, q.len(), len(ref))
		}
	}
	for len(ref) > 0 {
		if got, want := q.pop(), heap.Pop(&ref).(Msg); got != want {
			t.Fatalf("drain: queue pops %+v, heap pops %+v", got, want)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue holds %d messages after the heap drained", q.len())
	}
}

// TestFlightQueueMatchesHeap is the arrival-order property: on sequences
// shaped like the engine's, the queue pops exactly what a min-heap in
// compareFlight order pops. compareFlight is total and orders by Arrive first, and sends come in
// nondecreasing Arrive, so sorting each send instant's run once gives the
// heap's order.
func TestFlightQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		flightScript(t, randScript(rng, 1+rng.Intn(1200)))
	}
}

// randScript returns n random script bytes. A script of a few hundred bytes
// sends a thousand or more messages, so the ring wraps and front runs
// straddle its end.
func randScript(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// FuzzFlightQueue checks the queue against the reference heap on fuzzed scripts
// (see flightScript).
func FuzzFlightQueue(f *testing.F) {
	// Delay 3: two instants of sends with ties on one destination, ticks,
	// a lookahead peek between sends, and a reset.
	f.Add([]byte{2, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 1, 245, 4, 2, 0, 150, 0, 0, 0, 200, 255, 9, 0, 5, 1, 2, 151})
	// A delay near 2⁶³: the later sends' arrivals wrap.
	f.Add([]byte{0, 0, 3, 0, 1, 1, 0, 150, 0, 2, 1, 1, 151, 0, 3, 0, 2, 150, 239, 239})
	// Long enough for the ring to wrap.
	f.Add(randScript(rand.New(rand.NewSource(1)), 1500))
	f.Fuzz(flightScript)
}
