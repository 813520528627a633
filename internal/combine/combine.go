// Package combine implements Section 4.2 of the paper: the
// combining-broadcast problem (today usually called all-reduce) and
// all-to-one reduction.
//
// Each processor i holds a value x_i; all processors must learn
// x_0 + ... + x_{P-1} for an associative, commutative operation '+', in the
// postal model with combining taking zero time.
//
// Theorem 4.1's algorithm: fix the completion time T and let P = P(T) = f_T.
// At each time step j = 0, 1, ..., T-L, every processor i sends its current
// value to processor i + f_{j+L-1} (mod P); a value sent at time j arrives at
// j+L, is combined into the destination's current value, and the result is
// what the destination sends from then on. The invariant is that at time j
// processor i holds exactly x[i-f_j+1 : i] — the cyclic segment of length
// f_j ending at i — whence at time T every processor holds all P values.
// All-to-all broadcast with combining thus takes no longer than all-to-one
// reduction.
//
// For non-commutative operations the algorithm still computes, at processor
// i, the cyclic product x_{i+1} · x_{i+2} · ... · x_{i+P} in index order — a
// rotation of the full product; tests exploit this to verify the combining
// order exactly. (The paper's footnote on renumbering applies: commutativity
// is only needed if all processors must hold the identical value.)
//
// The reduction and the scan are built on the optimal broadcast tree ß(P),
// which they take from internal/logtime; ReduceScheduleWith and
// ScanScheduleWith expand a tree the caller already holds.
package combine

import (
	"fmt"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/schedule"
)

// TimeFor returns the smallest T such that P(T) >= p in the postal model
// with latency l: the optimal combining-broadcast (and reduction) time.
func TimeFor(l int, p int) int {
	return core.NewSeq(l).InvF(int64(p))
}

// Exact reports whether p is exactly P(T) for some T (i.e. p = f_T), the
// regime in which Theorem 4.1's schedule applies verbatim, and returns that T.
func Exact(l int, p int) (int, bool) {
	seq := core.NewSeq(l)
	t := seq.InvF(int64(p))
	return t, seq.F(t) == int64(p)
}

// Schedule returns the Theorem 4.1 communication schedule for latency l and
// horizon T, on P = f_T processors. Message ids encode (step, sender):
// id = j*P + i.
func Schedule(l int, T int) *schedule.Schedule {
	seq := core.NewSeq(l)
	p := int(seq.F(T))
	m := logp.Postal(p, logp.Time(l))
	s := &schedule.Schedule{M: m}
	if p == 1 {
		return s
	}
	for j := 0; j <= T-l; j++ {
		off := int(seq.F(j+l-1)) % p
		for i := 0; i < p; i++ {
			to := (i + off) % p
			id := j*p + i
			s.Send(i, logp.Time(j), id, to)
			s.Recv(to, logp.Time(j+l), id, i)
		}
	}
	return s
}

// Run executes the algorithm with real values and a binary operation,
// returning each processor's final value at time T. The operation is applied
// as incoming-segment op current-segment, preserving cyclic index order, so
// for a non-commutative op processor i ends with
// x_{i+1} op x_{i+2} op ... op x_{i+P}.
func Run[V any](l int, T int, vals []V, op func(V, V) V) ([]V, error) {
	seq := core.NewSeq(l)
	p := int(seq.F(T))
	if len(vals) != p {
		return nil, fmt.Errorf("combine: %d values for P(T)=%d", len(vals), p)
	}
	cur := append([]V(nil), vals...)
	if p == 1 {
		return cur, nil
	}
	type msg struct {
		to     int
		val    V
		arrive int
	}
	var inflight []msg
	for j := 0; j <= T; j++ {
		// Combine arrivals due at j (sent at j-L).
		rest := inflight[:0]
		for _, ms := range inflight {
			if ms.arrive == j {
				cur[ms.to] = op(ms.val, cur[ms.to])
			} else {
				rest = append(rest, ms)
			}
		}
		inflight = rest
		// Send at j (if within the sending window).
		if j <= T-l {
			off := int(seq.F(j+l-1)) % p
			for i := 0; i < p; i++ {
				inflight = append(inflight, msg{to: (i + off) % p, val: cur[i], arrive: j + l})
			}
		}
	}
	if len(inflight) != 0 {
		return nil, fmt.Errorf("combine: %d messages still in flight at T", len(inflight))
	}
	return cur, nil
}

// Segment is a cyclic index interval of values held by a processor: the
// combined value covers indices Start, Start+1, ..., Start+Len-1 (mod P).
type Segment struct {
	Start, Len int
}

// RunSegments executes the algorithm symbolically, tracking which input
// indices each processor's value covers, and verifies Theorem 4.1's
// invariant at every step: at time j, processor i covers exactly the segment
// of length f_j ending at i. It returns the final segments.
func RunSegments(l int, T int) ([]Segment, error) {
	seq := core.NewSeq(l)
	p := int(seq.F(T))
	segs, err := Run(l, T, initialSegments(p), func(a, b Segment) Segment {
		// a is the incoming (lower) segment, b the current one; they must
		// be adjacent cyclically: a followed by b.
		if (a.Start+a.Len)%p != b.Start {
			panic(fmt.Sprintf("combine: non-adjacent segments %+v + %+v (P=%d)", a, b, p))
		}
		return Segment{Start: a.Start, Len: a.Len + b.Len}
	})
	if err != nil {
		return nil, err
	}
	for i, s := range segs {
		if s.Len != p {
			return nil, fmt.Errorf("combine: proc %d covers %d of %d values", i, s.Len, p)
		}
		if wantStart := ((i+1)%p + p) % p; s.Start != wantStart {
			return nil, fmt.Errorf("combine: proc %d segment starts at %d, want %d", i, s.Start, wantStart)
		}
	}
	return segs, nil
}

func initialSegments(p int) []Segment {
	segs := make([]Segment, p)
	for i := range segs {
		segs[i] = Segment{Start: i, Len: 1}
	}
	return segs
}

// ReduceSchedule returns the all-to-one reduction schedule obtained by
// reversing an optimal single-item broadcast tree (Section 4.2's opening
// remark): the processor assigned to a tree node with delay d sends its
// combined value at time B(P)-d; the root (processor 0) holds the reduction
// of all P values at time B(P). Combining is charged zero time (postal-model
// convention of Section 4).
//
// Message ids are the sending processor's index. The tree is ß(p) from
// logtime.Tree.
func ReduceSchedule(m logp.Machine, p int) *schedule.Schedule {
	return ReduceScheduleWith(logtime.Tree(m, p))
}

// ReduceScheduleWith expands a given broadcast tree into its reversed-tree
// reduction on the tree's machine, as core.TreeSchedule expands it into a
// broadcast: callers that hold a prebuilt tree, a baseline tree or the
// heap-search oracle's tree pass it here.
func ReduceScheduleWith(tr *core.Tree) *schedule.Schedule {
	m := tr.M
	T := tr.MaxLabel()
	s := &schedule.Schedule{M: m, Events: make([]schedule.Event, 0, 2*max(len(tr.Nodes)-1, 0))}
	for ni, n := range tr.Nodes {
		for _, ci := range n.Children {
			// Broadcast: parent sends at st, child label = st + L + 2o.
			// Reversed: the child sends at T - label(child) = T - st - L - 2o,
			// so the parent's reception starts at T - st - o and the partial
			// sum is available there at T - st, in time for the parent's own
			// send at T - label(parent) <= T - st.
			at := T - tr.Nodes[ci].Label
			s.Send(ci, at, ci, ni)
			s.Recv(ni, at+m.O+m.L, ci, ci)
		}
	}
	return s
}

// ReduceRun executes a reversed-tree reduction with real values and a binary
// operation (combining charged zero time), returning the root's final value
// and the completion time B(P).
func ReduceRun[V any](m logp.Machine, vals []V, op func(V, V) V) (V, logp.Time, error) {
	var zero V
	p := len(vals)
	if p < 1 || p > m.P {
		return zero, 0, fmt.Errorf("combine: %d values for P=%d", p, m.P)
	}
	tr := logtime.Tree(m, p)
	T := tr.MaxLabel()
	cur := append([]V(nil), vals...)
	type msg struct {
		to     int
		val    V
		arrive logp.Time
	}
	var msgs []msg
	// Collect sends in time order: child ci sends to parent at T - label(ci).
	type ev struct {
		from, to int
		at       logp.Time
	}
	var evs []ev
	for ni, n := range tr.Nodes {
		for _, ci := range n.Children {
			evs = append(evs, ev{from: ci, to: ni, at: T - tr.Nodes[ci].Label})
		}
	}
	// Process step by step.
	for t := logp.Time(0); t <= T; t++ {
		// Arrivals combine first (combine-then-send discipline).
		rest := msgs[:0]
		for _, ms := range msgs {
			if ms.arrive == t {
				cur[ms.to] = op(cur[ms.to], ms.val)
			} else {
				rest = append(rest, ms)
			}
		}
		msgs = rest
		for _, e := range evs {
			if e.at == t {
				msgs = append(msgs, msg{to: e.to, val: cur[e.from], arrive: t + m.L + 2*m.O})
			}
		}
	}
	if len(msgs) != 0 {
		return zero, 0, fmt.Errorf("combine: %d messages unresolved after T", len(msgs))
	}
	return cur[0], T, nil
}
