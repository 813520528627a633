package sim

import (
	"slices"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/kitem"
	"logpopt/internal/logp"
	"logpopt/internal/schedule"
)

// refVariants returns references that differ from the trace tr in one
// event or in length, each in the event order: one event altered at the
// first, a middle and the last position, one moved to a later and to an
// earlier instant, cut short by one event, one event longer in a new or in
// the last instant, empty, and tr on another machine.
func refVariants(tr *schedule.Schedule) map[string]*schedule.Schedule {
	n := len(tr.Events)
	vary := func(f func(evs []schedule.Event) []schedule.Event) *schedule.Schedule {
		evs := f(slices.Clone(tr.Events))
		schedule.SortEvents(evs)
		return &schedule.Schedule{M: tr.M, Events: evs}
	}
	at := func(i int, f func(ev *schedule.Event)) *schedule.Schedule {
		return vary(func(evs []schedule.Event) []schedule.Event { f(&evs[i]); return evs })
	}
	other := tr.M
	other.L++
	return map[string]*schedule.Schedule{
		"first altered":   at(0, func(ev *schedule.Event) { ev.Item += 1000 }),
		"middle altered":  at(n/2, func(ev *schedule.Event) { ev.Peer = (ev.Peer + 1) % tr.M.P }),
		"last altered":    at(n-1, func(ev *schedule.Event) { ev.Item += 1000 }),
		"later instant":   at(n/2, func(ev *schedule.Event) { ev.Time++ }),
		"earlier instant": at(n/2, func(ev *schedule.Event) { ev.Time-- }),
		"cut short":       vary(func(evs []schedule.Event) []schedule.Event { return evs[:n-1] }),
		"one longer": vary(func(evs []schedule.Event) []schedule.Event {
			last := evs[n-1]
			last.Time++
			return append(evs, last)
		}),
		"last instant longer": vary(func(evs []schedule.Event) []schedule.Event {
			last := evs[n-1]
			last.Item += 1000
			return append(evs, last)
		}),
		"empty":         {M: tr.M},
		"other machine": {M: other, Events: slices.Clone(tr.Events)},
	}
}

// TestExpectMismatchStoresTheTrace replays schedules against references
// that depart from what the engine executes: the trace must equal the
// trace of a replay with no reference, event for event, in both modes.
// Against an exact copy of that trace, Executed must return the copy
// itself.
func TestExpectMismatchStoresTheTrace(t *testing.T) {
	type replay struct {
		name string
		s    *schedule.Schedule
		og   map[int]schedule.Origin
		mode Mode
	}
	m := logp.MustNew(64, 6, 2, 4)
	rs := []replay{
		{"broadcast", core.BroadcastSchedule(m, 0), core.Origins(0), Strict},
		{"broadcast", core.BroadcastSchedule(m, 0), core.Origins(0), Buffered},
	}
	if res, err := kitem.Greedy(3, 10, 6, kitem.Buffered); err == nil {
		rs = append(rs, replay{"kitem", res.Schedule, kitem.Origins(6), Buffered})
	}
	e := new(Engine)
	for _, r := range rs {
		e.Reset(r.s.M, r.mode)
		e.Replay(r.s, r.og)
		want := e.Executed()
		if len(want.Events) < 3 {
			t.Fatalf("%s: %d events", r.name, len(want.Events))
		}
		for name, ref := range refVariants(want) {
			e.Reset(r.s.M, r.mode)
			e.Expect(ref)
			e.Replay(r.s, r.og)
			got := e.Executed()
			if got == ref || got.M != want.M || !slices.Equal(got.Events, want.Events) {
				t.Errorf("%s mode %d, reference %s: trace of %d events differs from the stored-mode trace of %d",
					r.name, r.mode, name, len(got.Events), len(want.Events))
			}
		}
		ref := &schedule.Schedule{M: want.M, Events: slices.Clone(want.Events)}
		e.Reset(r.s.M, r.mode)
		e.Expect(ref)
		e.Replay(r.s, r.og)
		if got := e.Executed(); got != ref {
			t.Errorf("%s mode %d: a matching run did not return its reference", r.name, r.mode)
		}
	}
}

// TestExecutedSurvivesReset requires a handed-over Executed trace, stored
// or the matched reference, to stay intact when the engine is reset and
// runs another case; and a second Executed before that to return the same
// trace.
func TestExecutedSurvivesReset(t *testing.T) {
	a := core.BroadcastSchedule(logp.MustNew(40, 6, 2, 4), 0)
	b := core.BroadcastSchedule(logp.Postal(33, 3), 0)
	e := New(a.M, Strict)
	e.Replay(a, core.Origins(0))
	stored := e.Executed()
	if e.Executed() != stored {
		t.Fatal("a second Executed returned another trace")
	}
	keep := slices.Clone(stored.Events)
	ref := &schedule.Schedule{M: stored.M, Events: slices.Clone(keep)}

	e.Reset(b.M, Strict)
	e.Replay(b, core.Origins(0))
	e.Executed()
	e.Reset(a.M, Strict)
	e.Expect(ref)
	e.Replay(a, core.Origins(0))
	if e.Executed() != ref {
		t.Fatal("a matching run did not return its reference")
	}
	e.Reset(b.M, Buffered)
	e.Replay(b, core.Origins(0))
	e.Executed()
	if !slices.Equal(stored.Events, keep) {
		t.Error("a handed-over trace changed under the engine's next runs")
	}
	if !slices.Equal(ref.Events, keep) {
		t.Error("the reference changed under the engine's runs")
	}
}

// TestExpectOutOfInstantOrder drives the engine by hand so that each
// instant's events reach it against the event order: every processor sends
// in descending order, at time 0 and again after the receptions. Against
// the run's own trace the engine must return the reference; against one
// that departs, the stored-mode trace.
func TestExpectOutOfInstantOrder(t *testing.T) {
	m := logp.MustNew(8, 6, 2, 4)
	e := new(Engine)
	run := func(ref *schedule.Schedule) *schedule.Schedule {
		e.Reset(m, Strict)
		if ref != nil {
			e.Expect(ref)
		}
		for p := 0; p < m.P; p++ {
			e.Inject(p, p, 0)
		}
		for _, at := range []logp.Time{0, m.O + m.L + m.O} {
			e.TickTo(at)
			for p := m.P - 1; p >= 0; p-- {
				if err := e.Send(p, p, (p+1+int(at))%m.P); err != nil {
					t.Fatal(err)
				}
			}
		}
		e.Drain(100)
		return e.Executed()
	}
	want := run(nil)
	if len(want.Events) != 4*m.P {
		t.Fatalf("%d events, want %d", len(want.Events), 4*m.P)
	}
	ref := &schedule.Schedule{M: m, Events: slices.Clone(want.Events)}
	if run(ref) != ref {
		t.Error("a run that executed its reference out of instant order did not return it")
	}
	for name, ref := range refVariants(want) {
		if got := run(ref); got == ref || !slices.Equal(got.Events, want.Events) {
			t.Errorf("reference %s: trace differs from the stored-mode trace", name)
		}
	}
}
