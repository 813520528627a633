package schedule

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"logpopt/internal/logp"
)

// sortedByCompare is the reference: a comparison sort by the event order.
func sortedByCompare(evs []Event) []Event {
	want := slices.Clone(evs)
	slices.SortFunc(want, CompareEvents)
	return want
}

// checkSort sorts a copy of evs with s and requires the reference's result,
// and requires s.Order(evs) to be the reference's stable permutation.
func checkSort(t *testing.T, s *EventSorter, evs []Event) {
	t.Helper()
	got := slices.Clone(evs)
	s.Sort(got)
	want := sortedByCompare(evs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%d events: position %d is %+v, want %+v", len(evs), i, got[i], want[i])
		}
	}
	wantIDs := make([]int32, len(evs))
	for i := range wantIDs {
		wantIDs[i] = int32(i)
	}
	slices.SortStableFunc(wantIDs, func(a, b int32) int { return CompareEvents(evs[a], evs[b]) })
	if ids := s.Order(evs); !slices.Equal(ids, wantIDs) {
		t.Fatalf("%d events: Order %v, want %v", len(evs), ids, wantIDs)
	}
}

// FuzzSortEvents requires EventSorter.Sort to equal slices.SortFunc with
// CompareEvents, and EventSorter.Order to equal slices.SortStableFunc's
// permutation, on arbitrary traces. Bytes decode into a pattern of events
// repeated a few times with a per-copy time shift, so traces pass the
// small-trace cutoff, carry duplicates, and have times that descend between
// copies. A scale byte puts processors near zero, negatives included;
// around P = 2³¹−1, from P−7 to P+1; or 2⁴⁰ apart, from −2⁴² on.
func FuzzSortEvents(f *testing.F) {
	// Negative times (the shift byte is signed).
	f.Add([]byte{7, 0, 0xfd, 1, 3, 0, 1, 2, 4, 200, 1, 0, 3, 9, 7, 2, 5, 1})
	// Processors below 0 and at least P for any small machine.
	f.Add([]byte{5, 0, 4, 0, 1, 0, 0, 0, 15, 1, 1, 1, 0, 12, 0, 2, 3, 9, 14, 1, 0, 2, 0})
	// A few events at processors around P = 2³¹−1.
	f.Add([]byte{2, 1, 0, 0, 5, 0, 0, 1, 1, 5, 1, 0, 0, 2, 9, 2, 1, 3})
	// Processors spread over 2⁴⁰ per step, times ascending.
	f.Add([]byte{9, 2, 1, 3, 0, 0, 1, 0, 7, 0, 1, 0, 0, 11, 1, 2, 3, 4})
	// Duplicate events: one event in 16 copies with no time shift.
	f.Add([]byte{15, 0, 0, 4, 4, 0, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		copies, scale, shift := int(data[0]%16)+1, data[1]%3, logp.Time(int8(data[2]))
		proc := func(b byte) int {
			switch scale {
			case 1:
				return math.MaxInt32 - int(b%8) // P = 2³¹−1 down to P−7 ...
			case 2:
				return (int(b%16) - 4) << 40
			}
			return int(b%16) - 2
		}
		var pattern []Event
		for rest := data[3:]; len(rest) >= 5; rest = rest[5:] {
			pattern = append(pattern, Event{
				Proc: proc(rest[0]),
				Time: logp.Time(int8(rest[1])),
				Op:   Op(rest[2] % 4),
				Item: int(rest[3] % 4),
				Peer: int(rest[4]%8) - 2,
				Dur:  logp.Time(rest[4] >> 6),
			})
		}
		if scale == 1 && len(pattern) > 0 {
			pattern[0].Proc = math.MaxInt32 + 1 // ... and P+1
		}
		var evs []Event
		for c := range copies {
			for _, e := range pattern {
				e.Time += logp.Time(c) * shift
				evs = append(evs, e)
			}
		}
		var s EventSorter
		checkSort(t, &s, evs)
		slices.Reverse(evs)
		checkSort(t, &s, evs) // the same sorter, reusing its scratch
	})
}

// TestSortEventsRandom checks the sort against the reference on random
// traces of many sizes and shapes, with one sorter reused throughout.
func TestSortEventsRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var s EventSorter
	for _, n := range []int{0, 1, 2, 31, 32, 33, 100, 1000, 20000} {
		for _, shape := range []struct{ procs, times int }{{4, 4}, {1000, 3}, {3, 1000}, {1 << 20, 1 << 20}} {
			evs := make([]Event, n)
			for i := range evs {
				evs[i] = Event{
					Proc: rng.IntN(shape.procs) - 1,
					Time: logp.Time(rng.IntN(shape.times)),
					Op:   Op(rng.IntN(3)),
					Item: rng.IntN(5),
					Peer: rng.IntN(6),
				}
			}
			checkSort(t, &s, evs)
			// Time order already, as the engines record: each time's events
			// are shuffled among themselves.
			slices.SortStableFunc(evs, func(a, b Event) int { return int(a.Time - b.Time) })
			checkSort(t, &s, evs)
		}
	}
}

// TestSortEventsPileup sorts 10⁵ events that all share one (time, proc),
// in shuffled order. Every comparison lands in one tie group, which a
// quadratic tie fix would not finish.
func TestSortEventsPileup(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewPCG(5, 6))
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Proc: 7, Time: 42, Op: Op(i % 3), Item: i / 3, Peer: rng.IntN(n)}
	}
	rng.Shuffle(n, func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	checkSort(t, new(EventSorter), evs)
}

// TestSortEventsHugeProcessors sorts 10⁴ events on processors spread up to
// 2⁶² apart: the counting tables must size by the event count, not by the
// processor values.
func TestSortEventsHugeProcessors(t *testing.T) {
	const n = 10_000
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Proc: (i * 7919 % n) << 48, Time: logp.Time(n - i%97), Op: OpSend}
	}
	var s EventSorter
	checkSort(t, &s, evs)
	if c := cap(s.count); c > n+1 {
		t.Errorf("counting table holds %d entries for %d events", c, n)
	}
}
