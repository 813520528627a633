package schedule

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"logpopt/internal/logp"
)

// A Violation describes one way a schedule breaks the LogP model's rules.
type Violation struct {
	Kind string
	Msg  string
}

func (v Violation) Error() string { return fmt.Sprintf("schedule: %s: %s", v.Kind, v.Msg) }

// Violation kinds produced by Validate.
const (
	VUnmatched  = "unmatched-message"   // send without matching recv or vice versa
	VLatency    = "latency"             // recv not exactly send + o + L
	VGap        = "gap"                 // two sends (or recvs) closer than g at one port
	VBusy       = "busy-overlap"        // overlapping busy intervals at one processor
	VCapacity   = "capacity"            // more than ceil(L/g) messages in transit to/from a proc
	VAvail      = "item-availability"   // item forwarded before it was available
	VComplete   = "incomplete"          // a processor missed an item it must receive
	VDuplicate  = "duplicate-reception" // a processor received the same item twice
	VNegTime    = "negative-time"       // event before time 0
	VBadProc    = "bad-processor"       // processor index out of range
	VSelfSend   = "self-send"           // message from a processor to itself
	VBadCompute = "bad-compute"         // compute event with non-positive duration
	VBadOp      = "bad-op"              // event of an unknown kind
)

// Validate checks every structural LogP constraint on the schedule and
// returns all violations found (empty means the schedule is a legal LogP
// communication schedule). Receptions must begin exactly at arrival
// (send + o + L); for the deferred-reception discipline (NIC buffering, as
// in Section 3.5's modified model) use ValidateDeferred. Validate does not
// check item availability or broadcast completeness; see CheckAvailability
// and CheckBroadcastComplete.
func Validate(s *Schedule) []Violation { return NewIndex(s).Validate() }

// ValidateDeferred is Validate under the buffered-reception discipline:
// every reception must begin at or after its message's arrival, and each
// (sender, receiver, item) send is matched one-to-one with a later recv.
// This is the model of Section 3.5 (Theorem 3.8), in which arrivals wait in
// the receiver's input buffer until the processor receives them.
func ValidateDeferred(s *Schedule) []Violation {
	_, ds := NewIndex(s).validate(false, true)
	return ds
}

// ValidateBoth returns Validate(s) and ValidateDeferred(s). The two share
// their per-event, port and capacity passes and one walk over the channels.
func ValidateBoth(s *Schedule) (strict, deferred []Violation) { return NewIndex(s).ValidateBoth() }

// Validate is Validate of the indexed trace.
func (x *Index) Validate() []Violation {
	vs, _ := x.validate(true, false)
	return vs
}

// ValidateBoth is ValidateBoth of the indexed trace.
func (x *Index) ValidateBoth() (strict, deferred []Violation) { return x.validate(true, true) }

func (x *Index) validate(strict, deferred bool) (vs, ds []Violation) {
	events := checkEvents(x.s)
	sm, dm := x.matchMessages(strict, deferred)
	rest := append(x.checkPorts(), x.checkCapacity()...)
	if strict {
		vs = slices.Concat(events, sm, rest)
	}
	if deferred {
		ds = slices.Concat(events, dm, rest)
	}
	return vs, ds
}

// checkEvents is the per-event pass: times, processor and peer ranges, op
// kinds and compute durations.
func checkEvents(s *Schedule) []Violation {
	var out []Violation
	add := func(kind, format string, args ...any) {
		out = append(out, Violation{Kind: kind, Msg: fmt.Sprintf(format, args...)})
	}
	m := s.M
	for _, e := range s.Events {
		if e.Time < 0 {
			add(VNegTime, "%s of item %d at proc %d at time %d", e.Op, e.Item, e.Proc, e.Time)
		}
		if e.Proc < 0 || e.Proc >= m.P {
			add(VBadProc, "%s event at proc %d (P=%d)", e.Op, e.Proc, m.P)
		}
		switch e.Op {
		case OpSend, OpRecv:
			if e.Peer < 0 || e.Peer >= m.P {
				add(VBadProc, "%s event at proc %d has peer %d (P=%d)", e.Op, e.Proc, e.Peer, m.P)
			}
			if e.Peer == e.Proc {
				add(VSelfSend, "proc %d %ss item %d to itself", e.Proc, e.Op, e.Item)
			}
		case OpCompute:
			if e.Dur <= 0 {
				add(VBadCompute, "proc %d compute at %d has duration %d", e.Proc, e.Time, e.Dur)
			}
		default:
			add(VBadOp, "proc %d has an event of unknown kind %s at %d", e.Proc, e.Op, e.Time)
		}
	}
	return out
}

// matchMessages walks the channels once and matches each one's sends and
// receptions under the strict discipline (into sm) and the deferred one
// (into dm), as asked.
//
// Strict: every send must meet exactly as many receptions as there are
// sends of the same message, at its arrival time send + o + L. A merge walk
// over the channel's sorted arrivals and sorted reception times counts both
// sides of every arrival instant.
//
// Deferred: each reception must start at or after its message's arrival.
// Sends and receptions are matched in time order (FIFO per channel).
func (x *Index) matchMessages(strict, deferred bool) (sm, dm []Violation) {
	m := x.s.M
	var arrive, sent, recv []logp.Time
	x.EachChannel(func(from, to, item int, sends, recvs []int32) {
		recv = x.times(recv, recvs, 0)
		if strict {
			// Arrivals wrap past the int64 limit on huge-L machines, so
			// they are sorted as values rather than taken in send order.
			arrive = x.times(arrive, sends, m.O+m.L)
			ss, rr := arrive, recv
			for len(ss) > 0 || len(rr) > 0 {
				var at logp.Time
				if len(rr) == 0 || (len(ss) > 0 && ss[0] <= rr[0]) {
					at = ss[0]
				} else {
					at = rr[0]
				}
				n, r := 0, 0
				for n < len(ss) && ss[n] == at {
					n++
				}
				for r < len(rr) && rr[r] == at {
					r++
				}
				ss, rr = ss[n:], rr[r:]
				switch {
				case n > 0 && r != n:
					sm = append(sm, Violation{VUnmatched, fmt.Sprintf(
						"%d send(s) of item %d from %d to %d arriving at %d, but %d recv(s)",
						n, item, from, to, at, r)})
				case n == 0:
					sm = append(sm, Violation{VUnmatched, fmt.Sprintf(
						"%d recv(s) of item %d at %d from %d at time %d with no matching send at %d",
						r, item, to, from, at, at-m.O-m.L)})
				}
			}
		}
		if !deferred {
			return
		}
		if len(sends) != len(recvs) {
			dm = append(dm, Violation{VUnmatched, fmt.Sprintf(
				"item %d from %d to %d: %d sends but %d recvs",
				item, from, to, len(sends), len(recvs))})
			return
		}
		sent = x.times(sent, sends, 0)
		for i := range sent {
			if arr := sent[i] + m.O + m.L; recv[i] < arr {
				dm = append(dm, Violation{VLatency, fmt.Sprintf(
					"item %d from %d to %d: recv at %d before arrival %d",
					item, from, to, recv[i], arr)})
			}
		}
	})
	return sm, dm
}

// matchMessagesDeferred returns the deferred discipline's channel
// violations of s.
func matchMessagesDeferred(s *Schedule) []Violation {
	_, dm := NewIndex(s).matchMessages(false, true)
	return dm
}

// busyIval is a closed-open busy interval at a processor.
type busyIval struct {
	start, end logp.Time
	op         Op
	item       int
}

// checkPorts checks each in-range processor's send and receive spacing (gap
// g) and that its busy intervals (overheads and computes) never overlap.
func (x *Index) checkPorts() []Violation {
	var out []Violation
	m := x.s.M
	var ts []logp.Time
	var ivs []busyIval
	for i := range x.procs.Len() {
		proc, pe := x.procs.Group(i)
		if proc < 0 || proc >= m.P {
			continue
		}
		for _, op := range []Op{OpSend, OpRecv} {
			ts = ts[:0]
			for _, id := range pe {
				if e := &x.s.Events[id]; e.Op == op {
					ts = append(ts, e.Time)
				}
			}
			slices.Sort(ts)
			for j := 1; j < len(ts); j++ {
				if ts[j]-ts[j-1] < m.G {
					out = append(out, Violation{VGap, fmt.Sprintf(
						"proc %d: %ss at %d and %d violate gap g=%d",
						proc, op, ts[j-1], ts[j], m.G)})
				}
			}
		}
		ivs = ivs[:0]
		for _, id := range pe {
			switch e := &x.s.Events[id]; e.Op {
			case OpSend, OpRecv:
				if m.O > 0 {
					ivs = append(ivs, busyIval{e.Time, e.Time + m.O, e.Op, e.Item})
				}
			case OpCompute:
				ivs = append(ivs, busyIval{e.Time, e.Time + e.Dur, OpCompute, e.Item})
			}
		}
		// Which of two equal-start intervals is reported first depends on
		// the sort; this is the same pdqsort over the same input-order
		// sequence as the map-based oracle's sort.Slice.
		slices.SortFunc(ivs, func(a, b busyIval) int { return cmp.Compare(a.start, b.start) })
		for j := 1; j < len(ivs); j++ {
			if ivs[j].start < ivs[j-1].end {
				out = append(out, Violation{VBusy, fmt.Sprintf(
					"proc %d: %s(item %d) [%d,%d) overlaps %s(item %d) [%d,%d)",
					proc,
					ivs[j-1].op, ivs[j-1].item, ivs[j-1].start, ivs[j-1].end,
					ivs[j].op, ivs[j].item, ivs[j].start, ivs[j].end)})
			}
		}
	}
	return out
}

// checkCapacity bounds the messages in transit from and to each processor.
// A message sent at s occupies (s+o, s+o+L]; the maximum overlap is a merge
// walk over a processor's sorted starts and ends that takes the ends at an
// instant before its starts.
func (x *Index) checkCapacity() []Violation {
	var out []Violation
	m := x.s.M
	capacity := m.Capacity()
	var sends []int32
	var starts, ends []logp.Time
	for _, dir := range []struct {
		name string
		g    *Groups[int32]
	}{{"from", &x.procs}, {"to", &x.into}} {
		for i := range dir.g.Len() {
			p, ids := dir.g.Group(i)
			sends = sends[:0]
			for _, id := range ids {
				if x.s.Events[id].Op == OpSend {
					sends = append(sends, id)
				}
			}
			if len(sends) == 0 {
				continue
			}
			starts, ends = x.times(starts, sends, m.O), x.times(ends, sends, m.O+m.L)
			mx, done := 0, 0
			for j, t := range starts {
				for done < len(ends) && ends[done] <= t {
					done++
				}
				mx = max(mx, j+1-done)
			}
			if mx > capacity {
				out = append(out, Violation{VCapacity, fmt.Sprintf(
					"proc %d: %d messages in transit %s it (capacity ceil(L/g)=%d)",
					p, mx, dir.name, capacity)})
			}
		}
	}
	return out
}

// CheckAvailability verifies that no processor sends an item before the item
// is available to it. origins maps item -> (proc, time at which the item is
// available at that proc, e.g. its generation time). Any item a processor
// receives becomes available o cycles after the recv event. Each send of an
// item at time s from proc p requires availability at p no later than s.
func CheckAvailability(s *Schedule, origins map[int]Origin) []Violation {
	x := procIndex(s)
	av := x.Availability(origins)
	return av.Check(x)
}

// Check returns CheckAvailability's violations for the trace x indexes,
// given t, the trace's availability table. It walks x's processor groups
// beside t's, and reports in the trace's order.
func (t *AvailTable) Check(x *Index) []Violation {
	type found struct {
		id int32
		v  Violation
	}
	var out []found
	at := 0
	for g := range x.procs.Len() {
		proc, ids := x.procs.Group(g)
		as := t.Next(&at, proc)
		for _, id := range ids {
			e := &x.s.Events[id]
			if e.Op != OpSend {
				continue
			}
			k, ok := slices.BinarySearchFunc(as, e.Item, func(a Avail, item int) int { return cmp.Compare(a.Item, item) })
			switch {
			case !ok:
				out = append(out, found{id, Violation{VAvail, fmt.Sprintf(
					"proc %d sends item %d at %d but never has it", e.Proc, e.Item, e.Time)}})
			case e.Time < as[k].Time:
				out = append(out, found{id, Violation{VAvail, fmt.Sprintf(
					"proc %d sends item %d at %d but it is available only at %d",
					e.Proc, e.Item, e.Time, as[k].Time)}})
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, func(a, b found) int { return cmp.Compare(a.id, b.id) })
	vs := make([]Violation, len(out))
	for i, f := range out {
		vs[i] = f.v
	}
	return vs
}

// Avail is the earliest time an item is available at a processor: its origin
// time there or o after its earliest reception there, whichever is first.
type Avail struct {
	Proc, Item int
	Time       logp.Time
}

// AvailTable holds the availability of every (processor, item) pair that has
// an origin or a reception, grouped by processor and sorted by item.
type AvailTable struct{ Groups[Avail] }

// Availability computes the availability table of s under origins.
func Availability(s *Schedule, origins map[int]Origin) AvailTable {
	return procIndex(s).Availability(origins)
}

// Availability computes the availability table of the indexed trace under
// origins. The origins are put in processor order by the same counting pass
// as the index's tables, then merged with the index's processor groups.
func (x *Index) Availability(origins map[int]Origin) AvailTable {
	ogs := make([]Avail, 0, len(origins))
	for item, og := range origins {
		ogs = append(ogs, Avail{og.Proc, item, og.Time})
	}
	byProc := make([]int32, len(ogs))
	procOrder(byProc, make([]int32, max(min(x.s.M.P, len(ogs)), 0)+1), func(i int) int { return ogs[i].Proc })

	// Every processor with an event usually has a group; origins elsewhere
	// grow the tables past that.
	var t AvailTable
	t.Recs = make([]Avail, 0, len(ogs)+x.nrecv)
	t.procs, t.start = make([]int, 0, x.procs.Len()), make([]int, 0, x.procs.Len()+1)
	for g, o := 0, 0; g < x.procs.Len() || o < len(byProc); {
		var p int
		switch {
		case o == len(byProc):
			p = x.procs.procs[g]
		case g == x.procs.Len():
			p = ogs[byProc[o]].Proc
		default:
			p = min(x.procs.procs[g], ogs[byProc[o]].Proc)
		}
		lo := len(t.Recs)
		for ; o < len(byProc) && ogs[byProc[o]].Proc == p; o++ {
			t.Recs = append(t.Recs, ogs[byProc[o]])
		}
		if g < x.procs.Len() && x.procs.procs[g] == p {
			_, ids := x.procs.Group(g)
			for _, id := range ids {
				if e := &x.s.Events[id]; e.Op == OpRecv {
					t.Recs = append(t.Recs, Avail{p, e.Item, e.Time + x.s.M.O})
				}
			}
			g++
		}
		if len(t.Recs) == lo {
			continue
		}
		run := t.Recs[lo:]
		slices.SortFunc(run, func(a, b Avail) int {
			if c := cmp.Compare(a.Item, b.Item); c != 0 {
				return c
			}
			return cmp.Compare(a.Time, b.Time)
		})
		// Keep the first record of each item: its minimum.
		w := 1
		for j := 1; j < len(run); j++ {
			if run[j].Item != run[w-1].Item {
				run[w] = run[j]
				w++
			}
		}
		t.Recs = t.Recs[:lo+w]
		t.procs = append(t.procs, p)
		t.start = append(t.start, lo)
	}
	t.start = append(t.start, len(t.Recs))
	return t
}

// Latest returns the latest availability in the table (0 when empty): the
// time the last item lands, the finish time of a run.
func (t *AvailTable) Latest() logp.Time {
	var mx logp.Time
	for _, a := range t.Recs {
		mx = max(mx, a.Time)
	}
	return mx
}

// Lookup returns the availability of item at proc, by binary search, and
// whether the item is ever available there.
func (t *AvailTable) Lookup(proc, item int) (logp.Time, bool) {
	as := t.Find(proc)
	if i, ok := slices.BinarySearchFunc(as, item, func(a Avail, item int) int { return cmp.Compare(a.Item, item) }); ok {
		return as[i].Time, true
	}
	return 0, false
}

// Origin records where and when an item enters the system.
type Origin struct {
	Proc int
	Time logp.Time
}

// DerivedOrigins injects every item at its earliest sender, at time zero.
// Value-carrying schedules (reduce, scan, summation) move computed values
// whose item ids have no external origin map; for replay purposes an item
// simply needs to exist wherever it is first transmitted from.
func DerivedOrigins(s *Schedule) map[int]Origin {
	og := make(map[int]Origin)
	first := make(map[int]logp.Time)
	for _, ev := range s.Events {
		if ev.Op != OpSend {
			continue
		}
		if t, ok := first[ev.Item]; !ok || ev.Time < t {
			first[ev.Item] = ev.Time
			og[ev.Item] = Origin{Proc: ev.Proc}
		}
	}
	return og
}

// CheckBroadcastComplete verifies that every processor other than an item's
// origin receives the item exactly once, for every item in origins.
func CheckBroadcastComplete(s *Schedule, origins map[int]Origin) []Violation {
	var out []Violation
	counts := make(map[int]map[int]int) // item -> proc -> recv count
	for _, e := range s.Events {
		if e.Op != OpRecv {
			continue
		}
		if counts[e.Item] == nil {
			counts[e.Item] = make(map[int]int)
		}
		counts[e.Item][e.Proc]++
	}
	items := make([]int, 0, len(origins))
	for item := range origins {
		items = append(items, item)
	}
	sort.Ints(items)
	for _, item := range items {
		og := origins[item]
		for p := 0; p < s.M.P; p++ {
			n := counts[item][p]
			switch {
			case p == og.Proc:
				if n != 0 {
					out = append(out, Violation{VDuplicate, fmt.Sprintf(
						"origin proc %d receives its own item %d", p, item)})
				}
			case n == 0:
				out = append(out, Violation{VComplete, fmt.Sprintf(
					"proc %d never receives item %d", p, item)})
			case n > 1:
				out = append(out, Violation{VDuplicate, fmt.Sprintf(
					"proc %d receives item %d %d times", p, item, n)})
			}
		}
	}
	return out
}

// ValidateBroadcast runs Validate, CheckAvailability and
// CheckBroadcastComplete and returns all violations.
func ValidateBroadcast(s *Schedule, origins map[int]Origin) []Violation {
	out := Validate(s)
	out = append(out, CheckAvailability(s, origins)...)
	out = append(out, CheckBroadcastComplete(s, origins)...)
	return out
}

// Kinds returns the distinct violation kinds present, sorted — a compact
// fingerprint of how a schedule is illegal, independent of message wording
// and multiplicity. Implementations that detect the same defect through
// different rules (e.g. a busy port reported as gap vs busy-overlap) still
// differ here, so cross-implementation comparisons should treat any
// non-empty kind set as "flagged" rather than diffing the sets themselves.
func Kinds(vs []Violation) []string {
	seen := make(map[string]bool, len(vs))
	var out []string
	for _, v := range vs {
		if !seen[v.Kind] {
			seen[v.Kind] = true
			out = append(out, v.Kind)
		}
	}
	sort.Strings(out)
	return out
}

// FirstError converts a violation list into a single error (nil when empty),
// for callers that only need pass/fail.
func FirstError(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	if len(vs) == 1 {
		return vs[0]
	}
	return fmt.Errorf("%w (and %d more violations)", vs[0], len(vs)-1)
}
