package causal

import (
	"fmt"
	"reflect"
	"sort"

	"logpopt/internal/logp"
	"logpopt/internal/schedule"
)

// The map-based DAG construction and finish search that the
// processor-grouped ones replaced, kept as the test oracle (edited only to
// fit the current node layout, and to take nodes in the causal order that
// Analyze documents: the event order, position breaking ties):
// FuzzAnalyzeOracle and the table tests require Analyze to equal
// oracleAnalyze field for field.

// oracleAnalyze is Analyze with build and finish replaced by their
// map-based oracles.
func oracleAnalyze(s *schedule.Schedule, origins map[int]schedule.Origin) *Report {
	a := &analyzer{m: s.M, evs: s.Events}
	a.oracleBuild(origins)
	rep := &Report{Bound: -1}
	finNode, finTime := a.oracleFinish(origins)
	rep.Finish = finTime
	rep.Path, rep.Achieved = a.walk(finNode, finTime)
	rep.OpSlack = a.slacks(finTime)
	return rep
}

// oracleBuild creates the nodes in deterministic order and attaches every
// constraint edge.
func (a *analyzer) oracleBuild(origins map[int]schedule.Origin) {
	m := a.m
	a.nodes = make([]node, 0, len(a.evs))
	for _, ev := range a.evs {
		dur := m.O
		if ev.Op == schedule.OpCompute {
			dur = ev.Dur
		}
		a.nodes = append(a.nodes, node{start: ev.Time, dur: dur})
	}
	// The causal order: the event order, position breaking ties between
	// identical events.
	order := make([]int, len(a.nodes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return schedule.CompareEvents(a.evs[order[x]], a.evs[order[y]]) < 0
	})
	a.order = make([]int32, len(order))
	for i, id := range order {
		a.order[i] = int32(id)
	}

	// Per-processor serialization (busy) and same-op spacing (gap) edges.
	lastAt := make(map[int]int)            // proc -> last node in order
	lastOp := make(map[[2]int]int)         // (proc, op) -> last node
	type mkey struct{ from, to, item int } // message identity
	sendsBy := make(map[mkey][]int)        // sends per identity, time order
	recvsAt := make(map[[2]int][]int)      // (proc, item) -> recvs, time order
	for _, id := range order {
		n, ev := &a.nodes[id], &a.evs[id]
		p := ev.Proc
		if prev, ok := lastAt[p]; ok {
			pn := &a.nodes[prev]
			if pn.dur > 0 { // zero-duration events impose no busy constraint
				kind := KindBusy
				if a.evs[prev].Op == schedule.OpCompute {
					kind = KindCompute
				}
				n.add(prev, kind, pn.end())
			}
		}
		lastAt[p] = id
		if ev.Op != schedule.OpCompute {
			k := [2]int{p, int(ev.Op)}
			if prev, ok := lastOp[k]; ok {
				n.add(prev, KindGap, a.nodes[prev].start+m.G)
			}
			lastOp[k] = id
		}
		switch ev.Op {
		case schedule.OpSend:
			sendsBy[mkey{p, ev.Peer, ev.Item}] = append(sendsBy[mkey{p, ev.Peer, ev.Item}], id)
		case schedule.OpRecv:
			recvsAt[[2]int{p, ev.Item}] = append(recvsAt[[2]int{p, ev.Item}], id)
		}
	}

	// Latency edges: match each recv to an unused send of the same message
	// identity whose arrival is at or before the reception (buffered
	// receptions may start late), preferring the latest such arrival; an
	// exact-arrival strict trace matches one-to-one.
	used := make(map[int]bool)
	for _, id := range order {
		n, ev := &a.nodes[id], &a.evs[id]
		if ev.Op != schedule.OpRecv {
			continue
		}
		cands := sendsBy[mkey{ev.Peer, ev.Proc, ev.Item}]
		best := -1
		for _, sid := range cands {
			if used[sid] {
				continue
			}
			if arr := a.nodes[sid].start + m.O + m.L; arr <= n.start {
				best = sid // candidates are in time order; keep the latest
			}
		}
		if best < 0 { // violating trace: fall back to the earliest unused send
			for _, sid := range cands {
				if !used[sid] {
					best = sid
					break
				}
			}
		}
		if best >= 0 {
			used[best] = true
			n.add(best, KindLatency, a.nodes[best].start+m.O+m.L)
		}
	}

	// Availability edges: each send needs its item; the provider is whatever
	// made it available earliest at the sender — the item's origin there, or
	// the sender's first reception of it.
	for _, id := range order {
		ev := &a.evs[id]
		if ev.Op != schedule.OpSend {
			continue
		}
		provider, kind, at := -1, EdgeKind(-1), logp.Time(0)
		if og, ok := origins[ev.Item]; ok && og.Proc == ev.Proc {
			provider, kind, at = -1, KindOrigin, og.Time
		}
		if rs := recvsAt[[2]int{ev.Proc, ev.Item}]; len(rs) > 0 {
			first := rs[0] // earliest reception = earliest availability
			if avail := a.nodes[first].end(); kind < 0 || avail < at {
				provider, kind, at = first, KindAvail, avail
			}
		}
		if kind >= 0 {
			a.nodes[id].add(provider, kind, at)
		}
	}
}

// oracleFinish determines the run's completion time — the latest item availability
// across all (processor, item) pairs, or the end of the last compute if that
// is later — and the node that realizes it (-1 when an origin injection or
// an empty schedule realizes it).
func (a *analyzer) oracleFinish(origins map[int]schedule.Origin) (int, logp.Time) {
	type pi struct{ proc, item int }
	avail := make(map[pi]logp.Time)
	by := make(map[pi]int) // realizing recv node, -1 for origin
	for item, og := range origins {
		k := pi{og.Proc, item}
		if t, ok := avail[k]; !ok || og.Time < t {
			avail[k] = og.Time
			by[k] = -1
		}
	}
	for _, id := range a.order {
		if a.evs[id].Op != schedule.OpRecv {
			continue
		}
		k := pi{a.evs[id].Proc, a.evs[id].Item}
		at := a.nodes[id].end()
		if t, ok := avail[k]; !ok || at < t {
			avail[k] = at
			by[k] = int(id)
		}
	}
	bestNode, bestT, havePI := -1, logp.Time(0), false
	var bestK pi
	for k, t := range avail {
		if !havePI || t > bestT || (t == bestT && (k.proc < bestK.proc || (k.proc == bestK.proc && k.item < bestK.item))) {
			havePI, bestT, bestK, bestNode = true, t, k, by[k]
		}
	}
	for _, id := range a.order {
		n := &a.nodes[id]
		if a.evs[id].Op == schedule.OpCompute && (n.end() > bestT || !havePI) {
			havePI, bestT, bestNode = true, n.end(), int(id)
		}
	}
	if !havePI {
		return -1, 0
	}
	return bestNode, bestT
}

// SameAsOracle reports how Analyze differs from the oracle on s, or nil. It
// is exported for the external-package fuzz target and sweeps.
func SameAsOracle(s *schedule.Schedule, origins map[int]schedule.Origin) error {
	got, want := Analyze(s, origins), oracleAnalyze(s, origins)
	if !reflect.DeepEqual(got, want) || got.Signature() != want.Signature() {
		return fmt.Errorf("Analyze on %v with %d events:\n got %s\nwant %s\n got slack %v\nwant slack %v",
			s.M, len(s.Events), got, want, got.OpSlack, want.OpSlack)
	}
	return nil
}
