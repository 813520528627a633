package schedule

import (
	"cmp"
	"slices"

	"logpopt/internal/logp"
)

// An Index is the by-processor and by-channel index of one trace, built
// once and read by every pass that checks the trace (Validate and its
// variants, Availability and AvailTable.Check) and by the causal analyzer.
// Its tables hold event ids, positions in the trace's Events, so they take
// four bytes per entry whatever the event size. Ids ascend within a
// processor's group and within a channel's sends and its receptions, so on
// a trace in the event order (CompareEvents) each of these is in that order
// too. The trace must not change while its index is in use; an Index is
// safe for concurrent reads.
type Index struct {
	s     *Schedule
	procs Groups[int32] // every event, by processor
	chans Groups[int32] // every send and reception, by sending processor, then by (receiver, item, op)
	into  Groups[int32] // every send, by destination
	nrecv int           // receptions in the trace
}

// NewIndex builds the index of s. Its tables size by the event count,
// whatever P or the processor values (see GroupByProc).
func NewIndex(s *Schedule) *Index {
	x := procIndex(s)
	evs := s.Events
	nsend := 0
	for i := range evs {
		if evs[i].Op == OpSend {
			nsend++
		}
	}
	msgs, sends := make([]int32, 0, nsend+x.nrecv), make([]int32, 0, nsend)
	for i := range evs {
		switch evs[i].Op {
		case OpSend:
			sends = append(sends, int32(i))
			fallthrough
		case OpRecv:
			msgs = append(msgs, int32(i))
		}
	}
	x.chans = GroupByProc(s.M.P, msgs, func(id *int32) int { return evs[*id].from() })
	x.chans.SortEach(func(a, b int32) int {
		p, q := &evs[a], &evs[b]
		if c := cmp.Compare(p.to(), q.to()); c != 0 {
			return c
		}
		if c := cmp.Compare(p.Item, q.Item); c != 0 {
			return c
		}
		if c := cmp.Compare(p.Op, q.Op); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	x.into = GroupByProc(s.M.P, sends, func(id *int32) int { return evs[*id].Peer })
	return x
}

// procIndex builds only the processor groups of s's index, all that
// Availability and AvailTable.Check read. Its channel tables are empty, so
// it is for the standalone Availability and CheckAvailability alone: the
// validator and the analyzer get NewIndex's.
func procIndex(s *Schedule) *Index {
	evs := s.Events
	all := make([]int32, len(evs))
	x := &Index{s: s}
	for i := range evs {
		all[i] = int32(i)
		if evs[i].Op == OpRecv {
			x.nrecv++
		}
	}
	x.procs = GroupByProc(s.M.P, all, func(id *int32) int { return evs[*id].Proc })
	return x
}

// from and to are the sending and receiving processors of the message a
// send or a reception belongs to.
func (e *Event) from() int {
	if e.Op == OpSend {
		return e.Proc
	}
	return e.Peer
}

func (e *Event) to() int {
	if e.Op == OpSend {
		return e.Peer
	}
	return e.Proc
}

// Schedule returns the indexed trace.
func (x *Index) Schedule() *Schedule { return x.s }

// ByProc returns the ids of every event grouped by processor, in ascending
// processor order.
func (x *Index) ByProc() *Groups[int32] { return &x.procs }

// EachChannel calls fn once per channel — the sends and receptions of one
// (from, to, item) message identity — in (from, to, item) order, with the
// ids of the channel's sends and of its receptions.
func (x *Index) EachChannel(fn func(from, to, item int, sends, recvs []int32)) {
	evs := x.s.Events
	for g := range x.chans.Len() {
		from, ids := x.chans.Group(g)
		for len(ids) > 0 {
			e := &evs[ids[0]]
			to, item := e.to(), e.Item
			n := 1
			for n < len(ids) && evs[ids[n]].to() == to && evs[ids[n]].Item == item {
				n++
			}
			split := 0
			for split < n && evs[ids[split]].Op == OpSend {
				split++
			}
			fn(from, to, item, ids[:split], ids[split:n])
			ids = ids[n:]
		}
	}
}

// times returns ts[:0] with the times of the events ids, plus shift,
// appended in ascending order.
func (x *Index) times(ts []logp.Time, ids []int32, shift logp.Time) []logp.Time {
	ts = ts[:0]
	for _, id := range ids {
		ts = append(ts, x.s.Events[id].Time+shift)
	}
	if !slices.IsSorted(ts) {
		slices.Sort(ts)
	}
	return ts
}
