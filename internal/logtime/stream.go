package logtime

import (
	"sort"

	"logpopt/internal/logp"
	"logpopt/internal/schedule"
)

// edges is ß(p)'s edge set, held as the label points up to B(p) instead of
// a tree. The points are append-only, so the slice stays valid if the
// builder grows further, and it is all a walk keeps of the builder.
type edges struct {
	p int
	b logp.Time // B(p): the largest label in ß(p)

	d, stride logp.Time
	pts       []point // label points up to B(p), ascending
}

// edges grows the tables to B(p) and slices ß(p)'s label points.
func (b *Builder) edges(p int) edges {
	b.checkP(p)
	b.ensure(int64(p))
	i := sort.Search(len(b.pts), func(i int) bool { return b.pts[i].n >= int64(p) })
	return edges{p: p, b: b.pts[i].label, d: b.d, stride: b.stride, pts: b.pts[: i+1 : i+1]}
}

// kid is one child label point of a label group: the point's label and the
// node count below it.
type kid struct {
	label logp.Time
	below int64
}

// walk yields every edge of ß(p) — parent rank, child rank, child label —
// in the order core.TreeSchedule expands a materialized tree: parents by
// rank, each parent's children in send order. It stops early, returning
// false, when yield does.
//
// The nodes of one label group share their child labels t+d, t+d+stride,
// ..., so the child points are found once per group. The group member at
// position pos then has, at each child point, the child of rank
// below + (r - g) + pos (see Node), and membership in ß(p) is monotone along
// the children. Each edge therefore costs O(1) amortized.
func (e edges) walk(yield func(parent, child int, label logp.Time) bool) bool {
	var kids []kid
	p := int64(e.p)
	rank := int64(0)
	for pi := 0; rank < p; pi++ {
		pt := e.pts[pi]
		kids = kids[:0]
		cj := pi + 1
		for tc := pt.label + e.d; ; tc += e.stride {
			// Every child label up to B(p) is a point; the first one
			// missing lies beyond ß(p).
			cj += sort.Search(len(e.pts)-cj, func(i int) bool { return e.pts[cj+i].label >= tc })
			if cj == len(e.pts) || e.pts[cj].label != tc {
				break
			}
			kids = append(kids, kid{label: tc, below: e.pts[cj-1].n})
		}
		base := pt.r - pt.g
		for pos := int64(0); pos < pt.g && rank < p; pos, rank = pos+1, rank+1 {
			for _, k := range kids {
				c := k.below + base + pos
				if c >= p {
					break
				}
				if !yield(int(rank), int(c), k.label) {
					return false
				}
			}
		}
	}
	return true
}

// Collective names a schedule that is a fixed expansion of ß(P)'s edges.
type Collective int

// The tree-walk collectives, each event for event its materialized oracle.
const (
	// Broadcast is core.TreeSchedule(Tree(m, P), 0, nil, 0): per edge the
	// parent's send and the child's receive of item 0.
	Broadcast Collective = iota
	// Reduce is combine.ReduceScheduleWith: per edge the child's send of
	// its partial sum at B(P) - label and the parent's receive.
	Reduce
	// Scan is combine.ScanScheduleWith: per edge Reduce's two events, then
	// the broadcast's two shifted by B(P) carrying item P + child.
	Scan
)

// Seq returns op's schedule on m as an event sequence, event for event
// what the oracle expands from Tree(m, m.P), with neither the tree nor the
// events materialized, together with B(P), the tree's height. It builds
// ß(P)'s label points once, on a private builder, and every walk of the
// sequence reads them.
func Seq(m logp.Machine, op Collective) (schedule.Seq, logp.Time) {
	d, ol := m.D(), m.O+m.L
	es := MustBuilder(m).edges(m.P)
	T := es.b
	return func(yield func(schedule.Event) bool) {
		switch op {
		case Broadcast:
			es.walk(func(parent, child int, label logp.Time) bool {
				st := label - d
				return yield(schedule.Event{Proc: parent, Time: st, Op: schedule.OpSend, Peer: child}) &&
					yield(schedule.Event{Proc: child, Time: st + ol, Op: schedule.OpRecv, Peer: parent})
			})
		case Reduce:
			es.walk(func(parent, child int, label logp.Time) bool {
				at := T - label
				return yield(schedule.Event{Proc: child, Time: at, Op: schedule.OpSend, Item: child, Peer: parent}) &&
					yield(schedule.Event{Proc: parent, Time: at + ol, Op: schedule.OpRecv, Item: child, Peer: child})
			})
		case Scan:
			es.walk(func(parent, child int, label logp.Time) bool {
				at, st, item := T-label, T+label-d, m.P+child
				return yield(schedule.Event{Proc: child, Time: at, Op: schedule.OpSend, Item: child, Peer: parent}) &&
					yield(schedule.Event{Proc: parent, Time: at + ol, Op: schedule.OpRecv, Item: child, Peer: child}) &&
					yield(schedule.Event{Proc: parent, Time: st, Op: schedule.OpSend, Item: item, Peer: child}) &&
					yield(schedule.Event{Proc: child, Time: st + ol, Op: schedule.OpRecv, Item: item, Peer: parent})
			})
		}
	}, T
}
