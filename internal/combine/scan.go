package combine

import (
	"fmt"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/schedule"
)

// Scan (parallel prefix) is a natural companion of Section 4.2's reduction,
// included as an extension: it is not treated in the paper. The construction
// is the classic two-sweep on the optimal broadcast tree:
//
//   - up-sweep: the time reversal of the optimal broadcast (exactly the
//     paper's reduction pattern) computes every node's subtree sum, arriving
//     at the root at B(P);
//   - down-sweep: the optimal broadcast pattern, started at B(P), carries to
//     each node its exclusive prefix (the parent adds its own value and the
//     earlier siblings' subtree sums before forwarding).
//
// Completion: exactly 2 B(P), a factor 2 from the trivial lower bound B(P)
// (the last processor cannot learn anything before L+2o, and needs
// information from every lower-ranked processor).
//
// The prefix order is the tree's preorder (parent before its children,
// children in sibling order): ScanRanks returns the rank permutation so
// callers can lay their data out accordingly.

// ScanRanks returns rank[node] for the preorder ranking of the optimal
// broadcast tree ß(p) on machine m: the scan computes, at the processor
// assigned to node i, the prefix of all values with rank <= rank[i].
func ScanRanks(m logp.Machine, p int) []int {
	tr := logtime.Tree(m, p)
	rank := make([]int, tr.P())
	next := 0
	var rec func(ni int)
	rec = func(ni int) {
		rank[ni] = next
		next++
		for _, c := range tr.Nodes[ni].Children {
			rec(c)
		}
	}
	rec(0)
	return rank
}

// ScanRun executes the two-sweep inclusive scan with real values and a
// binary operation (combining charged zero time, Section 4's convention).
// vals[i] is the value at the processor assigned to tree node i; the result
// res[i] is the inclusive prefix over all nodes with preorder rank <=
// rank[i], combined strictly in rank order (safe for non-commutative op).
// The returned time is 2 B(P).
func ScanRun[V any](m logp.Machine, vals []V, op func(V, V) V) ([]V, logp.Time, error) {
	p := len(vals)
	if p < 1 || p > m.P {
		return nil, 0, fmt.Errorf("combine: %d values for P=%d", p, m.P)
	}
	tr := logtime.Tree(m, p)
	T := tr.MaxLabel()

	// Up-sweep: subtree sums in preorder-consistent order: a node's subtree
	// sum is own value, then each child's subtree in sibling order.
	subtree := make([]V, p)
	var up func(ni int) V
	up = func(ni int) V {
		acc := vals[ni]
		for _, c := range tr.Nodes[ni].Children {
			acc = op(acc, up(c))
		}
		subtree[ni] = acc
		return acc
	}
	up(0)

	// Down-sweep: exclusive prefixes. The root's exclusive prefix is empty;
	// we track (value, nonEmpty) to avoid requiring an identity element.
	type pre struct {
		v  V
		ok bool
	}
	excl := make([]pre, p)
	res := make([]V, p)
	var down func(ni int, px pre)
	down = func(ni int, px pre) {
		excl[ni] = px
		if px.ok {
			res[ni] = op(px.v, vals[ni])
		} else {
			res[ni] = vals[ni]
		}
		// Child i's exclusive prefix: parent's inclusive value plus the
		// earlier siblings' subtree sums.
		run := res[ni]
		for _, c := range tr.Nodes[ni].Children {
			down(c, pre{v: run, ok: true})
			run = op(run, subtree[c])
		}
	}
	down(0, pre{})
	return res, 2 * T, nil
}

// ScanSchedule returns the communication schedule of the two-sweep scan:
// the reversed-tree reduction (messages carry subtree sums, item id = the
// sending node) followed at time B(P) by the forward broadcast (messages
// carry exclusive prefixes, item id = p + receiving node). The tree is ß(p)
// from logtime.Tree.
func ScanSchedule(m logp.Machine, p int) *schedule.Schedule {
	return ScanScheduleWith(logtime.Tree(m, p))
}

// ScanScheduleWith expands a given broadcast tree into the two-sweep scan
// on the tree's machine (see ReduceScheduleWith).
func ScanScheduleWith(tr *core.Tree) *schedule.Schedule {
	m, p := tr.M, tr.P()
	T := tr.MaxLabel()
	s := &schedule.Schedule{M: m, Events: make([]schedule.Event, 0, 4*max(len(tr.Nodes)-1, 0))}
	for ni, nd := range tr.Nodes {
		for _, ci := range nd.Children {
			// Up-sweep: child ci -> parent, as in ReduceSchedule.
			at := T - tr.Nodes[ci].Label
			s.Send(ci, at, ci, ni)
			s.Recv(ni, at+m.O+m.L, ci, ci)
			// Down-sweep: parent -> child, the broadcast pattern offset by T.
			st := T + tr.Nodes[ci].Label - m.D()
			s.Send(ni, st, p+ci, ci)
			s.Recv(ci, st+m.O+m.L, p+ci, ni)
		}
	}
	return s
}
