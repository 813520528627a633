package conform

import (
	"slices"
	"sync"

	"logpopt/internal/logp"
	"logpopt/internal/obs/causal"
	"logpopt/internal/schedule"
)

// traces derives, for one case, each part the checks read of a distinct
// sorted trace once: its index (schedule.Index), its availability table
// under the case's origins, its strict, deferred and availability checks,
// and its critical-path signature; every later part reads the index and the
// table. It also holds the case's reference, the trace every backend
// executes on a clean case (see reference): the validator's trace is the
// reference, and an engine run that matched it returns the reference
// itself. A trace is looked up by pointer, and by content (sameTrace) the
// first time a stage asks for it, so equal traces from different backends
// share one entry. The first stage to ask for a part computes it from the
// entry's own trace, and a concurrent asker waits for that result. A Check
// uses one traces and drops it when it returns; a backend replayed on its
// own derives afresh.
type traces struct {
	origins map[int]schedule.Origin
	mu      sync.Mutex
	all     []*derived
	seen    map[*schedule.Schedule]*derived // every trace looked up so far

	sendsOnce sync.Once
	sorted    *schedule.Schedule // the case's sends, in the event order

	refOnce sync.Once
	ref     *schedule.Schedule // derive(sorted)
}

// derived is one distinct trace and what has been derived from it.
type derived struct {
	tr *schedule.Schedule // every part is computed from this trace

	indexOnce sync.Once
	index     *schedule.Index

	tableOnce sync.Once
	table     schedule.AvailTable

	checkOnce                 sync.Once
	strict, deferred, unavail []schedule.Violation

	sigOnce sync.Once
	sig     string
}

func newTraces(origins map[int]schedule.Origin) *traces {
	return &traces{origins: origins, seen: make(map[*schedule.Schedule]*derived)}
}

// orNew returns t, or a fresh traces for c when t is nil.
func (t *traces) orNew(c Case) *traces {
	if t == nil {
		return newTraces(c.Origins)
	}
	return t
}

// sends returns the sends of the case's schedule s in the event order, the
// only events a simulator replay reads, sorting them on the first call.
func (t *traces) sends(s *schedule.Schedule) *schedule.Schedule {
	t.sendsOnce.Do(func() { t.sorted = sortedSends(s) })
	return t.sorted
}

// reference returns the case's reference, the derived trace of its
// schedule s (derive), building it on the first call. The engines of a
// Check run against it (sim.Engine.Expect, runtime.Runtime.Expect), so a
// clean case's engine traces are the reference itself and no engine stores
// one.
func (t *traces) reference(s *schedule.Schedule) *schedule.Schedule {
	t.refOnce.Do(func() { t.ref = derive(t.sends(s)) })
	return t.ref
}

// sortedSends returns the send events of s in the event order.
func sortedSends(s *schedule.Schedule) *schedule.Schedule {
	n := 0
	for _, ev := range s.Events {
		if ev.Op == schedule.OpSend {
			n++
		}
	}
	sorted := &schedule.Schedule{M: s.M, Events: make([]schedule.Event, 0, n)}
	for _, ev := range s.Events {
		if ev.Op == schedule.OpSend {
			sorted.Events = append(sorted.Events, ev)
		}
	}
	sorted.Sort()
	return sorted
}

// derive returns the strict-mode trace of the schedule whose sends, in the
// event order, are sends: every send, and for each send to a processor in
// range other than the sender its reception o + L later, in the event order.
// It is the validator backend's trace, and every backend's on a clean case.
func derive(sends *schedule.Schedule) *schedule.Schedule {
	m, ss := sends.M, sends.Events
	reaches := func(ev *schedule.Event) bool { return ev.Peer >= 0 && ev.Peer < m.P && ev.Peer != ev.Proc }
	n := len(ss)
	for i := range ss {
		if reaches(&ss[i]) {
			n++
		}
	}
	// The receptions go in the tail, in their sends' time order, so only
	// each instant's need sorting. A forward merge with the sends then
	// fills the trace from the front, never past the next reception it
	// reads.
	evs := make([]schedule.Event, n)
	rs := evs[len(ss):]
	j := 0
	for i := range ss {
		if ev := &ss[i]; reaches(ev) {
			rs[j] = schedule.Event{Proc: ev.Peer, Time: ev.Time + m.O + m.L, Op: schedule.OpRecv, Item: ev.Item, Peer: ev.Proc}
			j++
		}
	}
	schedule.SortEvents(rs)
	i, j := 0, 0
	for ; i < len(ss) && j < len(rs); i++ {
		for j < len(rs) && schedule.CompareEvents(rs[j], ss[i]) < 0 {
			evs[i+j] = rs[j]
			j++
		}
		evs[i+j] = ss[i]
	}
	copy(evs[i+j:], ss[i:])
	return &schedule.Schedule{M: m, Events: evs}
}

// of returns the entry of s's trace, adding one if no earlier trace equals
// it. Each trace is compared by content once; a repeat finds it by pointer.
func (t *traces) of(s *schedule.Schedule) *derived {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d, ok := t.seen[s]; ok {
		return d
	}
	i := slices.IndexFunc(t.all, func(d *derived) bool { return sameTrace(d.tr, s) })
	if i < 0 {
		i = len(t.all)
		t.all = append(t.all, &derived{tr: s})
	}
	t.seen[s] = t.all[i]
	return t.all[i]
}

// diff is traceDiff(a, b), answered without a walk when a and b are one
// trace or share one entry, that is, when their lookups already found them
// equal.
func (t *traces) diff(a, b *schedule.Schedule) string {
	if a == b {
		return ""
	}
	t.mu.Lock()
	d, ok := t.seen[a]
	same := ok && t.seen[b] == d
	t.mu.Unlock()
	if same {
		return ""
	}
	return traceDiff(a, b)
}

func (t *traces) index(d *derived) *schedule.Index {
	d.indexOnce.Do(func() {
		mIndexes.Inc()
		d.index = schedule.NewIndex(d.tr)
	})
	return d.index
}

func (t *traces) availability(d *derived) *schedule.AvailTable {
	d.tableOnce.Do(func() {
		mAvailabilities.Inc()
		d.table = t.index(d).Availability(t.origins)
	})
	return &d.table
}

// finish recomputes a run's finish time from its executed trace: each
// (proc, item) availability is the earliest of its origin time there and
// reception time + o over the trace's recv events; the finish is the latest
// availability. This is the same quantity the simulator reports as
// Report.Finish, derived independently so the two can be cross-checked.
func (t *traces) finish(s *schedule.Schedule) logp.Time {
	return t.availability(t.of(s)).Latest()
}

// checks returns the violations of Validate, ValidateDeferred and
// CheckAvailability on s. The slices are the caller's to append to.
func (t *traces) checks(s *schedule.Schedule) (strict, deferred, unavail []schedule.Violation) {
	d := t.of(s)
	d.checkOnce.Do(func() {
		d.strict, d.deferred = t.index(d).ValidateBoth()
		d.unavail = t.availability(d).Check(t.index(d))
	})
	return slices.Clip(d.strict), slices.Clip(d.deferred), slices.Clip(d.unavail)
}

// signature returns the critical-path signature of s.
func (t *traces) signature(s *schedule.Schedule) string {
	d := t.of(s)
	d.sigOnce.Do(func() {
		mAnalyses.Inc()
		d.sig = causal.AnalyzeIndex(t.index(d), t.availability(d), t.origins).Signature()
	})
	return d.sig
}

// sameTrace reports whether two sorted traces have the same machine and the
// same events, which is all that the parts derived from a trace read.
func sameTrace(a, b *schedule.Schedule) bool {
	return a.M == b.M && slices.Equal(a.Events, b.Events)
}
