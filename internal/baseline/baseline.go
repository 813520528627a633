// Package baseline implements the broadcast and reduction algorithms the
// paper's optimal schedules are measured against: the linear chain, the flat
// (source-sends-all) tree, the balanced binary tree, and the binomial tree
// that message-passing libraries traditionally use, plus a naive pipelined
// k-item broadcast and reduce-then-broadcast combining. Comparing these
// against internal/core, internal/kitem and internal/combine reproduces the
// "who wins and by how much" shape of the paper's results (the universal
// optimal tree degenerates to the binomial tree exactly when g = L + 2o, and
// beats it whenever g < L + 2o).
package baseline

import (
	"fmt"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/schedule"
)

// stride returns the per-processor send spacing max(g, o).
func stride(m logp.Machine) logp.Time { return core.SendStride(m) }

// LinearTree returns the chain broadcast tree: 0 -> 1 -> ... -> P-1.
// Completion: (P-1)(L+2o).
func LinearTree(m logp.Machine, p int) *core.Tree {
	t := &core.Tree{M: m, Nodes: make([]core.Node, p)}
	t.Nodes[0] = core.Node{Label: 0, Parent: -1}
	for i := 1; i < p; i++ {
		t.Nodes[i] = core.Node{Label: logp.Time(i) * m.D(), Parent: i - 1}
		t.Nodes[i-1].Children = []int{i}
	}
	return t
}

// FlatTree returns the tree in which the source sends to every other
// processor directly. Completion: (P-2)*max(g,o) + L + 2o.
func FlatTree(m logp.Machine, p int) *core.Tree {
	t := &core.Tree{M: m, Nodes: make([]core.Node, p)}
	t.Nodes[0] = core.Node{Label: 0, Parent: -1}
	for i := 1; i < p; i++ {
		t.Nodes[i] = core.Node{Label: logp.Time(i-1)*stride(m) + m.D(), Parent: 0}
		t.Nodes[0].Children = append(t.Nodes[0].Children, i)
	}
	return t
}

// BinaryTree returns a balanced binary broadcast tree (heap-shaped): node i
// sends to nodes 2i+1 and 2i+2, the first child at label+0 and the second a
// stride later.
func BinaryTree(m logp.Machine, p int) *core.Tree {
	t := &core.Tree{M: m, Nodes: make([]core.Node, p)}
	t.Nodes[0] = core.Node{Label: 0, Parent: -1}
	for i := 0; i < p; i++ {
		for c := 0; c < 2; c++ {
			ci := 2*i + 1 + c
			if ci >= p {
				break
			}
			t.Nodes[ci] = core.Node{
				Label:  t.Nodes[i].Label + logp.Time(c)*stride(m) + m.D(),
				Parent: i,
			}
			t.Nodes[i].Children = append(t.Nodes[i].Children, ci)
		}
	}
	return t
}

// BinomialTree returns the classical binomial broadcast tree in LogP
// timing: every informed processor keeps sending to new processors, but
// spaced by the full message span L+2o rather than the gap — the
// round-synchronized structure of traditional MPI broadcasts. It coincides
// with the optimal universal tree exactly when g >= L+2o and is strictly
// slower when g < L+2o (the regime the LogP model highlights). Completion:
// about ceil(log2 P)(L+2o).
func BinomialTree(m logp.Machine, p int) *core.Tree {
	t := logtime.Tree(BinomialMachine(m), p)
	t.M = m // the schedule still runs on the real machine
	return t
}

// BinomialMachine is the stretched machine BinomialTree builds on: m with
// gap g′ = max(g, L+2o), so that the universal-tree construction spaces
// siblings by the full message span. Only g differs, so a schedule walked
// on it has the event times of BinomialTree's schedule on m.
func BinomialMachine(m logp.Machine) logp.Machine {
	m.G = max(m.G, m.D())
	return m
}

// TreeTime returns the completion time of a baseline tree's broadcast.
func TreeTime(t *core.Tree) logp.Time { return t.MaxLabel() }

// Schedule expands a baseline tree for item id item, starting at time 0.
func Schedule(t *core.Tree, item int) (*schedule.Schedule, error) {
	return core.TreeSchedule(t, item, nil, 0)
}

// SequentialPipelined is the naive k-item broadcast baseline: each item is
// broadcast along the optimal single-item tree, but the source can start
// item x only after finishing the root's sends for item x-1, so items start
// r0 = (root degree) steps apart instead of 1. In the postal model its
// completion is (k-1)*r0 + B(P-1) + L, compared with the paper's
// B(P-1) + L + k - 1.
func SequentialPipelined(l logp.Time, p, k int) (*schedule.Schedule, logp.Time, error) {
	if p < 2 || k < 1 {
		return nil, 0, fmt.Errorf("baseline: bad instance P=%d k=%d", p, k)
	}
	m := logp.Postal(p, l)
	inner := logp.Postal(p-1, l)
	tr := logtime.Tree(inner, p-1)
	r0 := len(tr.Nodes[0].Children) + 1 // root sends, plus the source's own send slot
	s := &schedule.Schedule{M: m}
	procOf := make([]int, p-1)
	for i := range procOf {
		procOf[i] = i + 1 // tree node i -> processor i+1; source is 0
	}
	var finish logp.Time
	for x := 0; x < k; x++ {
		start := logp.Time(x * r0)
		s.Send(0, start, x, 1)
		s.Recv(1, start+l, x, 0)
		sub, err := core.TreeSchedule(tr, x, procOf, start+l)
		if err != nil {
			return nil, 0, err
		}
		s.Events = append(s.Events, sub.Events...)
		if end := sub.LastRecv(); end > finish {
			finish = end
		}
	}
	return s, finish, nil
}

// ReduceThenBroadcastTime returns the completion time of the naive
// combining-broadcast baseline: an optimal all-to-one reduction followed by
// an optimal one-to-all broadcast, i.e. 2 B(P) — compared with the paper's
// Theorem 4.1 time of B(P) (Section 4.2: "optimal to within a factor of 2").
func ReduceThenBroadcastTime(m logp.Machine, p int) logp.Time {
	return 2 * logtime.B(m, p)
}
