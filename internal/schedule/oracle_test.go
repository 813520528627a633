package schedule

import (
	"fmt"
	"slices"
	"sort"

	"logpopt/internal/logp"
)

// The map-based validator passes the processor-grouped ones replaced, kept
// verbatim as the test oracle: FuzzValidate and the table tests require the
// production passes to report the same violations.

// oracleValidate is validate with every pass after the per-event one
// replaced by its map-based oracle.
func oracleValidate(s *Schedule, deferRecv bool) []Violation {
	out := checkEvents(s)
	if deferRecv {
		out = append(out, oracleMatchMessagesDeferred(s)...)
	} else {
		out = append(out, oracleMatchMessages(s)...)
	}
	out = append(out, oracleCheckPorts(s)...)
	out = append(out, oracleCheckCapacity(s)...)
	return out
}

// oracleMsgKey identifies one directed message for send/recv matching.
type oracleMsgKey struct {
	from, to, item int
	arrive         logp.Time // send.Time + o + L == recv.Time
}

func oracleMatchMessages(s *Schedule) []Violation {
	var out []Violation
	m := s.M
	sends := make(map[oracleMsgKey]int)
	recvs := make(map[oracleMsgKey]int)
	for _, e := range s.Events {
		switch e.Op {
		case OpSend:
			sends[oracleMsgKey{e.Proc, e.Peer, e.Item, e.Time + m.O + m.L}]++
		case OpRecv:
			recvs[oracleMsgKey{e.Peer, e.Proc, e.Item, e.Time}]++
		}
	}
	for k, n := range sends {
		if r := recvs[k]; r != n {
			out = append(out, Violation{VUnmatched, fmt.Sprintf(
				"%d send(s) of item %d from %d to %d arriving at %d, but %d recv(s)",
				n, k.item, k.from, k.to, k.arrive, r)})
		}
	}
	for k, n := range recvs {
		if sd := sends[k]; sd == 0 && n > 0 {
			out = append(out, Violation{VUnmatched, fmt.Sprintf(
				"%d recv(s) of item %d at %d from %d at time %d with no matching send at %d",
				n, k.item, k.to, k.from, k.arrive, k.arrive-m.O-m.L)})
		}
	}
	return out
}

// oracleMatchMessagesDeferred matches sends to recvs per (from, to, item) channel,
// requiring each recv to start at or after its message's arrival. Sends and
// recvs on a channel are matched in time order (FIFO per channel).
func oracleMatchMessagesDeferred(s *Schedule) []Violation {
	var out []Violation
	m := s.M
	type chKey struct{ from, to, item int }
	sends := make(map[chKey][]logp.Time)
	recvs := make(map[chKey][]logp.Time)
	var keys []chKey
	for _, e := range s.Events {
		switch e.Op {
		case OpSend:
			k := chKey{e.Proc, e.Peer, e.Item}
			if len(sends[k]) == 0 && len(recvs[k]) == 0 {
				keys = append(keys, k)
			}
			sends[k] = append(sends[k], e.Time)
		case OpRecv:
			k := chKey{e.Peer, e.Proc, e.Item}
			if len(sends[k]) == 0 && len(recvs[k]) == 0 {
				keys = append(keys, k)
			}
			recvs[k] = append(recvs[k], e.Time)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.item < b.item
	})
	for _, k := range keys {
		ss := append([]logp.Time(nil), sends[k]...)
		rr := append([]logp.Time(nil), recvs[k]...)
		sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
		sort.Slice(rr, func(i, j int) bool { return rr[i] < rr[j] })
		if len(ss) != len(rr) {
			out = append(out, Violation{VUnmatched, fmt.Sprintf(
				"item %d from %d to %d: %d sends but %d recvs",
				k.item, k.from, k.to, len(ss), len(rr))})
			continue
		}
		for i := range ss {
			if rr[i] < ss[i]+m.O+m.L {
				out = append(out, Violation{VLatency, fmt.Sprintf(
					"item %d from %d to %d: recv at %d before arrival %d",
					k.item, k.from, k.to, rr[i], ss[i]+m.O+m.L)})
			}
		}
	}
	return out
}

// oracleBusyIval is a closed-open busy interval at a processor.
type oracleBusyIval struct {
	start, end logp.Time
	op         Op
	item       int
}

func oracleCheckPorts(s *Schedule) []Violation {
	var out []Violation
	m := s.M
	type portEvents struct {
		sends, recvs []logp.Time
		busy         []oracleBusyIval
	}
	ports := make(map[int]*portEvents)
	pe := func(p int) *portEvents {
		if ports[p] == nil {
			ports[p] = &portEvents{}
		}
		return ports[p]
	}
	for _, e := range s.Events {
		if e.Proc < 0 || e.Proc >= m.P {
			continue
		}
		p := pe(e.Proc)
		switch e.Op {
		case OpSend:
			p.sends = append(p.sends, e.Time)
			if m.O > 0 {
				p.busy = append(p.busy, oracleBusyIval{e.Time, e.Time + m.O, OpSend, e.Item})
			}
		case OpRecv:
			p.recvs = append(p.recvs, e.Time)
			if m.O > 0 {
				p.busy = append(p.busy, oracleBusyIval{e.Time, e.Time + m.O, OpRecv, e.Item})
			}
		case OpCompute:
			p.busy = append(p.busy, oracleBusyIval{e.Time, e.Time + e.Dur, OpCompute, e.Item})
		}
	}
	procs := make([]int, 0, len(ports))
	for p := range ports {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, proc := range procs {
		p := ports[proc]
		for _, kind := range []struct {
			name  string
			times []logp.Time
		}{{"send", p.sends}, {"recv", p.recvs}} {
			ts := append([]logp.Time(nil), kind.times...)
			sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
			for i := 1; i < len(ts); i++ {
				if ts[i]-ts[i-1] < m.G {
					out = append(out, Violation{VGap, fmt.Sprintf(
						"proc %d: %ss at %d and %d violate gap g=%d",
						proc, kind.name, ts[i-1], ts[i], m.G)})
				}
			}
		}
		ivs := p.busy
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end {
				out = append(out, Violation{VBusy, fmt.Sprintf(
					"proc %d: %s(item %d) [%d,%d) overlaps %s(item %d) [%d,%d)",
					proc,
					ivs[i-1].op, ivs[i-1].item, ivs[i-1].start, ivs[i-1].end,
					ivs[i].op, ivs[i].item, ivs[i].start, ivs[i].end)})
			}
		}
	}
	return out
}

func oracleCheckCapacity(s *Schedule) []Violation {
	var out []Violation
	m := s.M
	cap := m.Capacity()
	// Messages in transit from p occupy (send.Time+o, send.Time+o+L]; count
	// the maximum overlap per source and per destination with a sweep.
	type edge struct {
		start, end logp.Time
	}
	from := make(map[int][]edge)
	to := make(map[int][]edge)
	for _, e := range s.Events {
		if e.Op != OpSend {
			continue
		}
		ed := edge{e.Time + m.O, e.Time + m.O + m.L}
		from[e.Proc] = append(from[e.Proc], ed)
		to[e.Peer] = append(to[e.Peer], ed)
	}
	check := func(dir string, edges map[int][]edge) {
		procs := make([]int, 0, len(edges))
		for p := range edges {
			procs = append(procs, p)
		}
		sort.Ints(procs)
		for _, p := range procs {
			type pt struct {
				t logp.Time
				d int
			}
			var pts []pt
			for _, ed := range edges[p] {
				pts = append(pts, pt{ed.start, +1}, pt{ed.end, -1})
			}
			sort.Slice(pts, func(i, j int) bool {
				if pts[i].t != pts[j].t {
					return pts[i].t < pts[j].t
				}
				return pts[i].d < pts[j].d // process ends before starts at same instant
			})
			cur, mx := 0, 0
			for _, q := range pts {
				cur += q.d
				if cur > mx {
					mx = cur
				}
			}
			if mx > cap {
				out = append(out, Violation{VCapacity, fmt.Sprintf(
					"proc %d: %d messages in transit %s it (capacity ceil(L/g)=%d)",
					p, mx, dir, cap)})
			}
		}
	}
	check("from", from)
	check("to", to)
	return out
}

// oracleCheckAvailability verifies that no processor sends an item before the item
// is available to it. origins maps item -> (proc, time at which the item is
// available at that proc, e.g. its generation time). Any item a processor
// receives becomes available o cycles after the recv event. Each send of an
// item at time s from proc p requires availability at p no later than s.
func oracleCheckAvailability(s *Schedule, origins map[int]Origin) []Violation {
	var out []Violation
	m := s.M
	type pk struct{ proc, item int }
	avail := make(map[pk]logp.Time)
	for item, og := range origins {
		avail[pk{og.Proc, item}] = og.Time
	}
	for _, e := range s.Events {
		if e.Op != OpRecv {
			continue
		}
		k := pk{e.Proc, e.Item}
		t := e.Time + m.O
		if cur, ok := avail[k]; !ok || t < cur {
			avail[k] = t
		}
	}
	for _, e := range s.Events {
		if e.Op != OpSend {
			continue
		}
		t, ok := avail[pk{e.Proc, e.Item}]
		if !ok {
			out = append(out, Violation{VAvail, fmt.Sprintf(
				"proc %d sends item %d at %d but never has it", e.Proc, e.Item, e.Time)})
			continue
		}
		if e.Time < t {
			out = append(out, Violation{VAvail, fmt.Sprintf(
				"proc %d sends item %d at %d but it is available only at %d",
				e.Proc, e.Item, e.Time, t)})
		}
	}
	return out
}

// SameAsOracle reports the first way Validate, ValidateDeferred or
// CheckAvailability differ from the oracle on s: as sorted Kind+Msg lists,
// and for the deferred message matching also in its channel-sorted order.
// ValidateBoth must return Validate's and ValidateDeferred's lists in their
// order. It is exported for the external-package sweeps.
func SameAsOracle(s *Schedule, origins map[int]Origin) error {
	strict, deferred := ValidateBoth(s)
	for _, c := range []struct {
		name      string
		got, want []Violation
		ordered   bool
	}{
		{"Validate", Validate(s), oracleValidate(s, false), false},
		{"ValidateDeferred", ValidateDeferred(s), oracleValidate(s, true), false},
		{"matchMessagesDeferred", matchMessagesDeferred(s), oracleMatchMessagesDeferred(s), true},
		{"CheckAvailability", CheckAvailability(s, origins), oracleCheckAvailability(s, origins), false},
		{"ValidateBoth (strict)", strict, Validate(s), true},
		{"ValidateBoth (deferred)", deferred, ValidateDeferred(s), true},
	} {
		got, want := violationKeys(c.got, !c.ordered), violationKeys(c.want, !c.ordered)
		if !slices.Equal(got, want) {
			return fmt.Errorf("%s on %v with %d events:\n got %q\nwant %q", c.name, s.M, len(s.Events), got, want)
		}
	}
	return nil
}

func violationKeys(vs []Violation, sorted bool) []string {
	keys := make([]string, len(vs))
	for i, v := range vs {
		keys[i] = v.Kind + ": " + v.Msg
	}
	if sorted {
		slices.Sort(keys)
	}
	return keys
}
