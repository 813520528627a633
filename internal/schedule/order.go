package schedule

import (
	"cmp"
	"math"
	"slices"

	"logpopt/internal/logp"
	"logpopt/internal/slab"
)

// CompareEvents is the one event order: by time, then processor, op, item,
// peer and duration. It compares every field, so two events compare equal
// only when they are identical, and any sort by it gives the same slice.
func CompareEvents(a, b Event) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Proc, b.Proc); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Op, b.Op); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Item, b.Item); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Peer, b.Peer); c != 0 {
		return c
	}
	return cmp.Compare(a.Dur, b.Dur)
}

// Sort just compares on traces of at most smallSort events.
const smallSort = 32

// An EventSorter sorts traces into the event order (CompareEvents) in
// place, keeping its scratch — a few int32s per event, never a second event
// buffer — across calls. The zero value is ready to use; an EventSorter is
// not safe for concurrent use.
type EventSorter struct {
	rank  []int32 // time rank of each input position
	order []int32 // positions in processor order
	next  []int32 // positions in (time, processor) order
	count []int32
	times []logp.Time         // distinct times, when they descend somewhere
	seen  map[logp.Time]int32 // their first-appearance numbers
}

// SortEvents sorts evs into the event order with a fresh EventSorter.
func SortEvents(evs []Event) {
	var s EventSorter
	s.Sort(evs)
}

// Sort orders evs by CompareEvents in place. It counts where a comparison
// sort would compare: a stable counting pass by processor, under
// GroupByProc's dense/overflow rule so that memory is O(n) whatever the
// processor values, then a stable counting pass by time rank, give every
// event its place in (time, processor) order; each event then moves once,
// along the cycles of that permutation, with no second event buffer. Only
// events that share a (time, processor) pair are compared. The time ranks
// take one scan when times never descend, as in the engines' traces, and
// otherwise come from sorting the distinct times. On traces of at most
// smallSort events Sort just compares. Time is O(n) for the engines' traces
// and O(n log n) in the worst case.
func (s *EventSorter) Sort(evs []Event) {
	n := len(evs)
	if n <= smallSort || n > math.MaxInt32 {
		slices.SortFunc(evs, CompareEvents)
		return
	}
	if slices.IsSortedFunc(evs, CompareEvents) {
		return
	}
	s.byTimeProc(evs)
	permute(evs, s.next)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && evs[hi].Time == evs[lo].Time && evs[hi].Proc == evs[lo].Proc {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(evs[lo:hi], CompareEvents)
		}
		lo = hi
	}
}

// Order returns the positions of evs in the event order, position breaking
// ties between identical events: the permutation a stable sort by
// CompareEvents would apply. It counts as Sort does and leaves evs as they
// are.
func (s *EventSorter) Order(evs []Event) []int32 {
	n := len(evs)
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	if slices.IsSortedFunc(evs, CompareEvents) {
		return ids
	}
	byEvent := func(a, b int32) int {
		if c := CompareEvents(evs[a], evs[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	if n <= smallSort {
		slices.SortFunc(ids, byEvent)
		return ids
	}
	s.byTimeProc(evs)
	copy(ids, s.next[:n])
	for lo := 0; lo < n; {
		e, hi := &evs[ids[lo]], lo+1
		for hi < n && evs[ids[hi]].Time == e.Time && evs[ids[hi]].Proc == e.Proc {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(ids[lo:hi], byEvent)
		}
		lo = hi
	}
	return ids
}

// byTimeProc sets s.next to the positions of evs stably sorted by (time,
// processor): a stable counting pass by processor, then one by time rank.
func (s *EventSorter) byTimeProc(evs []Event) {
	n := len(evs)
	s.rank, s.order, s.next = slab.Grow(s.rank, n), slab.Grow(s.order, n), slab.Grow(s.next, n)
	ranks := s.rankTimes(evs)

	dense := -1 // one past the largest processor, at most n
	for i := range evs {
		dense = max(dense, evs[i].Proc)
	}
	dense = min(dense, n-1) + 1
	s.count = slab.Grow(s.count, dense+1)
	clear(s.count)
	procOrder(s.order, s.count, func(i int) int { return evs[i].Proc })

	s.count = slab.Grow(s.count, ranks+1)
	clear(s.count)
	for _, r := range s.rank[:n] {
		s.count[r+1]++
	}
	for r := 1; r <= ranks; r++ {
		s.count[r] += s.count[r-1]
	}
	for _, i := range s.order {
		r := s.rank[i]
		s.next[s.count[r]] = i
		s.count[r]++
	}
}

// rankTimes sets s.rank to each event's rank among the distinct times and
// returns the number of distinct times.
func (s *EventSorter) rankTimes(evs []Event) int {
	r := int32(0)
	s.rank[0] = 0
	for i := 1; i < len(evs); i++ {
		switch t := evs[i].Time; {
		case t < evs[i-1].Time:
			return s.rankSorted(evs)
		case t > evs[i-1].Time:
			r++
		}
		s.rank[i] = r
	}
	return int(r) + 1
}

// rankSorted is rankTimes for times that descend somewhere. It numbers the
// distinct times as they first appear, through a map probed only when the
// time changes from the previous event's, sorts them, and maps each event's
// number to its rank. s.order and s.next serve as scratch.
func (s *EventSorter) rankSorted(evs []Event) int {
	if s.seen == nil {
		s.seen = make(map[logp.Time]int32)
	}
	clear(s.seen)
	s.times = s.times[:0]
	last, id := evs[0].Time, int32(0)
	s.seen[last] = 0
	s.times = append(s.times, last)
	for i := range evs {
		if t := evs[i].Time; t != last {
			var ok bool
			if id, ok = s.seen[t]; !ok {
				id = int32(len(s.times))
				s.seen[t] = id
				s.times = append(s.times, t)
			}
			last = t
		}
		s.rank[i] = id
	}
	k := len(s.times)
	byTime, rankOf := s.order[:k], s.next[:k]
	for i := range byTime {
		byTime[i] = int32(i)
	}
	slices.SortFunc(byTime, func(a, b int32) int { return cmp.Compare(s.times[a], s.times[b]) })
	for r, i := range byTime {
		rankOf[i] = int32(r)
	}
	for i, id := range s.rank[:len(evs)] {
		s.rank[i] = rankOf[id]
	}
	return k
}

// procOrder fills order with the positions 0..len(order)-1 stably sorted by
// proc(position). Processors in [0, len(count)-1) get a counting bucket;
// every other processor goes through one overflow list sorted by
// (processor, position). count must be zero on entry.
func procOrder(order, count []int32, proc func(int) int) {
	n, dense := len(order), len(count)-1
	var over []int32
	for i := range n {
		if p := proc(i); p >= 0 && p < dense {
			count[p+1]++
		} else {
			over = append(over, int32(i))
		}
	}
	slices.SortFunc(over, func(a, b int32) int {
		if c := cmp.Compare(proc(int(a)), proc(int(b))); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	neg, _ := slices.BinarySearchFunc(over, 0, func(i int32, t int) int { return cmp.Compare(proc(int(i)), t) })
	copy(order, over[:neg])
	count[0] = int32(neg)
	for p := 1; p <= dense; p++ {
		count[p] += count[p-1]
	}
	for i := range n {
		if p := proc(i); p >= 0 && p < dense {
			order[count[p]] = int32(i)
			count[p]++
		}
	}
	copy(order[n-(len(over)-neg):], over[neg:])
}

// permute rearranges evs in place so that position i receives the event at
// position next[i], following each cycle of the permutation with one
// spare event. It leaves next as the identity.
func permute(evs []Event, next []int32) {
	for i := range next {
		if int(next[i]) == i {
			continue
		}
		tmp, j := evs[i], i
		for {
			k := int(next[j])
			next[j] = int32(j)
			if k == i {
				evs[j] = tmp
				break
			}
			evs[j] = evs[k]
			j = k
		}
	}
}
