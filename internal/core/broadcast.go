package core

import (
	"fmt"

	"logpopt/internal/logp"
	"logpopt/internal/schedule"
)

// TreeSchedule expands a broadcast tree into a concrete event schedule for a
// single item.
//
// procOf maps tree node index -> processor id; pass nil for the identity
// assignment (node i handled by processor i). offset shifts every event by
// the given time (used to stagger trees for multi-item broadcasts). item is
// the item id carried by every message.
//
// In the produced schedule, the node with label d receives the item at
// arrival time offset + d - o (so it is available at offset + d), and an
// internal node starts its i-th transmission at offset + label + i*stride.
func TreeSchedule(t *Tree, item int, procOf []int, offset logp.Time) (*schedule.Schedule, error) {
	if procOf == nil {
		procOf = make([]int, t.P())
		for i := range procOf {
			procOf[i] = i
		}
	}
	if len(procOf) != t.P() {
		return nil, fmt.Errorf("core: TreeSchedule: procOf has %d entries for %d nodes", len(procOf), t.P())
	}
	m := t.M
	// One send and one recv per edge.
	s := &schedule.Schedule{M: m, Events: make([]schedule.Event, 0, 2*max(t.P()-1, 0))}
	for ni, n := range t.Nodes {
		for _, ci := range n.Children {
			// Derive the send time from the child's label so that
			// deliberately slackened trees (e.g. baseline binomial trees
			// whose sibling spacing exceeds g) schedule at their stated
			// times; for eager trees this equals label + i*stride.
			st := offset + t.Nodes[ci].Label - m.D()
			s.Send(procOf[ni], st, item, procOf[ci])
			s.Recv(procOf[ci], st+m.O+m.L, item, procOf[ni])
		}
	}
	return s, nil
}

// BroadcastSchedule returns the optimal single-item broadcast schedule for
// the machine: the expansion of OptimalTree(m, m.P) with the identity
// processor assignment, item id item, starting at time 0 with the datum at
// processor 0.
func BroadcastSchedule(m logp.Machine, item int) *schedule.Schedule {
	t := OptimalTree(m, m.P)
	s, err := TreeSchedule(t, item, nil, 0)
	if err != nil {
		panic(err) // identity assignment can't mismatch
	}
	return s
}

// Origins returns the origin map for a single broadcast from processor 0 at
// time 0, for use with schedule.ValidateBroadcast.
func Origins(item int) map[int]schedule.Origin {
	return map[int]schedule.Origin{item: {Proc: 0, Time: 0}}
}
