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
func Validate(s *Schedule) []Violation {
	return validate(s, false)
}

// ValidateDeferred is Validate under the buffered-reception discipline:
// every reception must begin at or after its message's arrival, and each
// (sender, receiver, item) send is matched one-to-one with a later recv.
// This is the model of Section 3.5 (Theorem 3.8), in which arrivals wait in
// the receiver's input buffer until the processor receives them.
func ValidateDeferred(s *Schedule) []Violation {
	return validate(s, true)
}

func validate(s *Schedule, deferRecv bool) []Violation {
	out := checkEvents(s)
	if deferRecv {
		out = append(out, matchMessagesDeferred(s)...)
	} else {
		out = append(out, matchMessages(s)...)
	}
	out = append(out, checkPorts(s)...)
	out = append(out, checkCapacity(s)...)
	return out
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

// endpoint is one side of a message on the channel (from, to, item): a send
// or a reception at time t.
type endpoint struct {
	from, to, item int
	op             Op
	t              logp.Time
}

// channels groups every send and reception by sending processor, each group
// sorted by (to, item, op, t): a channel's sends, then its receptions, both
// in time order. Send times are shifted by sendShift.
func channels(s *Schedule, sendShift logp.Time) Groups[endpoint] {
	eps := make([]endpoint, 0, len(s.Events))
	for _, e := range s.Events {
		switch e.Op {
		case OpSend:
			eps = append(eps, endpoint{e.Proc, e.Peer, e.Item, OpSend, e.Time + sendShift})
		case OpRecv:
			eps = append(eps, endpoint{e.Peer, e.Proc, e.Item, OpRecv, e.Time})
		}
	}
	g := GroupByProc(s.M.P, eps, func(ep *endpoint) int { return ep.from })
	g.SortEach(func(a, b endpoint) int {
		if c := cmp.Compare(a.to, b.to); c != 0 {
			return c
		}
		if c := cmp.Compare(a.item, b.item); c != 0 {
			return c
		}
		if c := cmp.Compare(a.op, b.op); c != 0 {
			return c
		}
		return cmp.Compare(a.t, b.t)
	})
	return g
}

// eachChannel calls fn once per channel of g, in (from, to, item) order, with
// the channel's sends and receptions.
func eachChannel(g *Groups[endpoint], fn func(from, to, item int, sends, recvs []endpoint)) {
	for i := range g.Len() {
		from, eps := g.Group(i)
		for len(eps) > 0 {
			to, item := eps[0].to, eps[0].item
			n := 1
			for n < len(eps) && eps[n].to == to && eps[n].item == item {
				n++
			}
			split := 0
			for split < n && eps[split].op == OpSend {
				split++
			}
			fn(from, to, item, eps[:split], eps[split:n])
			eps = eps[n:]
		}
	}
}

// matchMessages requires every send to meet exactly as many receptions as
// there are sends of the same message, at its arrival time send + o + L. A
// merge walk over each channel's arrival-sorted sends and time-sorted
// receptions counts both sides of every arrival instant.
func matchMessages(s *Schedule) []Violation {
	var out []Violation
	m := s.M
	g := channels(s, m.O+m.L)
	eachChannel(&g, func(from, to, item int, ss, rr []endpoint) {
		for len(ss) > 0 || len(rr) > 0 {
			var at logp.Time
			if len(rr) == 0 || (len(ss) > 0 && ss[0].t <= rr[0].t) {
				at = ss[0].t
			} else {
				at = rr[0].t
			}
			n, r := 0, 0
			for n < len(ss) && ss[n].t == at {
				n++
			}
			for r < len(rr) && rr[r].t == at {
				r++
			}
			ss, rr = ss[n:], rr[r:]
			switch {
			case n > 0 && r != n:
				out = append(out, Violation{VUnmatched, fmt.Sprintf(
					"%d send(s) of item %d from %d to %d arriving at %d, but %d recv(s)",
					n, item, from, to, at, r)})
			case n == 0:
				out = append(out, Violation{VUnmatched, fmt.Sprintf(
					"%d recv(s) of item %d at %d from %d at time %d with no matching send at %d",
					r, item, to, from, at, at-m.O-m.L)})
			}
		}
	})
	return out
}

// matchMessagesDeferred matches sends to recvs per (from, to, item) channel,
// requiring each recv to start at or after its message's arrival. Sends and
// recvs on a channel are matched in time order (FIFO per channel).
func matchMessagesDeferred(s *Schedule) []Violation {
	var out []Violation
	m := s.M
	g := channels(s, 0)
	eachChannel(&g, func(from, to, item int, ss, rr []endpoint) {
		if len(ss) != len(rr) {
			out = append(out, Violation{VUnmatched, fmt.Sprintf(
				"item %d from %d to %d: %d sends but %d recvs",
				item, from, to, len(ss), len(rr))})
			return
		}
		for i := range ss {
			if arr := ss[i].t + m.O + m.L; rr[i].t < arr {
				out = append(out, Violation{VLatency, fmt.Sprintf(
					"item %d from %d to %d: recv at %d before arrival %d",
					item, from, to, rr[i].t, arr)})
			}
		}
	})
	return out
}

// busyIval is a closed-open busy interval at a processor.
type busyIval struct {
	start, end logp.Time
	op         Op
	item       int
}

// checkPorts checks each in-range processor's send and receive spacing (gap
// g) and that its busy intervals (overheads and computes) never overlap.
func checkPorts(s *Schedule) []Violation {
	var out []Violation
	m := s.M
	var ids []int32
	for i, e := range s.Events {
		if e.Proc >= 0 && e.Proc < m.P {
			ids = append(ids, int32(i))
		}
	}
	g := GroupByProc(m.P, ids, func(i *int32) int { return s.Events[*i].Proc })
	var ts []logp.Time
	var ivs []busyIval
	for i := range g.Len() {
		proc, pe := g.Group(i)
		for _, op := range []Op{OpSend, OpRecv} {
			ts = ts[:0]
			for _, id := range pe {
				if e := &s.Events[id]; e.Op == op {
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
			switch e := &s.Events[id]; e.Op {
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
func checkCapacity(s *Schedule) []Violation {
	var out []Violation
	m := s.M
	capacity := m.Capacity()
	var sends []int32
	for i, e := range s.Events {
		if e.Op == OpSend {
			sends = append(sends, int32(i))
		}
	}
	var starts, ends []logp.Time
	for _, dir := range []struct {
		name string
		proc func(*int32) int
	}{
		{"from", func(i *int32) int { return s.Events[*i].Proc }},
		{"to", func(i *int32) int { return s.Events[*i].Peer }},
	} {
		g := GroupByProc(m.P, sends, dir.proc)
		for i := range g.Len() {
			p, ids := g.Group(i)
			starts, ends = starts[:0], ends[:0]
			for _, id := range ids {
				t := s.Events[id].Time
				starts = append(starts, t+m.O)
				ends = append(ends, t+m.O+m.L)
			}
			slices.Sort(starts)
			slices.Sort(ends)
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
	var out []Violation
	av := Availability(s, origins)
	for _, e := range s.Events {
		if e.Op != OpSend {
			continue
		}
		a, ok := av.Lookup(e.Proc, e.Item)
		if !ok {
			out = append(out, Violation{VAvail, fmt.Sprintf(
				"proc %d sends item %d at %d but never has it", e.Proc, e.Item, e.Time)})
			continue
		}
		if e.Time < a {
			out = append(out, Violation{VAvail, fmt.Sprintf(
				"proc %d sends item %d at %d but it is available only at %d",
				e.Proc, e.Item, e.Time, a)})
		}
	}
	return out
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
	recvs := 0
	for _, e := range s.Events {
		if e.Op == OpRecv {
			recvs++
		}
	}
	all := make([]Avail, 0, len(origins)+recvs)
	for item, og := range origins {
		all = append(all, Avail{og.Proc, item, og.Time})
	}
	for _, e := range s.Events {
		if e.Op == OpRecv {
			all = append(all, Avail{e.Proc, e.Item, e.Time + s.M.O})
		}
	}
	g := GroupByProc(s.M.P, all, func(a *Avail) int { return a.Proc })
	g.SortEach(func(a, b Avail) int {
		if c := cmp.Compare(a.Item, b.Item); c != 0 {
			return c
		}
		return cmp.Compare(a.Time, b.Time)
	})
	// Keep the first record of each (processor, item) run: its minimum.
	w := 0
	for i := range g.Len() {
		lo, hi := g.start[i], g.start[i+1]
		g.start[i] = w
		for j := lo; j < hi; j++ {
			if j == lo || g.Recs[j].Item != g.Recs[w-1].Item {
				g.Recs[w] = g.Recs[j]
				w++
			}
		}
	}
	g.start[g.Len()] = w
	g.Recs = g.Recs[:w]
	return AvailTable{g}
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
