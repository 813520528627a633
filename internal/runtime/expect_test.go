package runtime

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

// replayOn replays s from og on rt, reset for mode, checking the run against
// ref unless it is nil, and returns the trace.
func replayOn(t *testing.T, rt *Runtime, s *schedule.Schedule, og map[int]schedule.Origin, mode Mode, ref *schedule.Schedule) *schedule.Schedule {
	t.Helper()
	if err := rt.Reset(s.M, mode, ReplayHandlers(s, og)); err != nil {
		t.Fatal(err)
	}
	if ref != nil {
		rt.Expect(ref)
	}
	rt.Run(Horizon(s))
	for limit := DrainHorizon(s); rt.Pending() && rt.Now() < limit; {
		rt.Step()
	}
	return rt.Trace()
}

// TestExpectMismatchStoresTheTrace replays schedules against references
// that depart from what the runtime executes: the trace must equal the
// trace of a replay with no reference, event for event, in both modes.
// Against an exact copy of that trace, Trace must return the copy itself.
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
	rt := new(Runtime)
	for _, r := range rs {
		want := replayOn(t, rt, r.s, r.og, r.mode, nil)
		if len(want.Events) < 3 {
			t.Fatalf("%s: %d events", r.name, len(want.Events))
		}
		for name, ref := range refVariants(want) {
			got := replayOn(t, rt, r.s, r.og, r.mode, ref)
			if got == ref || got.M != want.M || !slices.Equal(got.Events, want.Events) {
				t.Errorf("%s mode %d, reference %s: trace of %d events differs from the stored-mode trace of %d",
					r.name, r.mode, name, len(got.Events), len(want.Events))
			}
		}
		ref := &schedule.Schedule{M: want.M, Events: slices.Clone(want.Events)}
		if got := replayOn(t, rt, r.s, r.og, r.mode, ref); got != ref {
			t.Errorf("%s mode %d: a matching run did not return its reference", r.name, r.mode)
		}
	}
}

// TestTraceSurvivesReset requires a handed-over Trace, stored or the
// matched reference, to stay intact when the runtime is reset and runs
// another case; and a second Trace before that to return the same trace.
func TestTraceSurvivesReset(t *testing.T) {
	a := core.BroadcastSchedule(logp.MustNew(40, 6, 2, 4), 0)
	b := core.BroadcastSchedule(logp.Postal(33, 3), 0)
	og := core.Origins(0)
	rt := new(Runtime)
	stored := replayOn(t, rt, a, og, Strict, nil)
	if rt.Trace() != stored {
		t.Fatal("a second Trace returned another trace")
	}
	keep := slices.Clone(stored.Events)
	ref := &schedule.Schedule{M: stored.M, Events: slices.Clone(keep)}

	replayOn(t, rt, b, og, Strict, nil)
	if replayOn(t, rt, a, og, Strict, ref) != ref {
		t.Fatal("a matching run did not return its reference")
	}
	replayOn(t, rt, b, og, Buffered, nil)
	if !slices.Equal(stored.Events, keep) {
		t.Error("a handed-over trace changed under the runtime's next runs")
	}
	if !slices.Equal(ref.Events, keep) {
		t.Error("the reference changed under the runtime's runs")
	}
}

// TestExpectOutOfInstantOrder runs a postal program (o = 0) in which
// processors 4..7 receive at L and send at once, in the same instant. The
// runtime records a processor's receptions before its sends, which the
// event order puts first, so that instant's events reach it against the
// event order. Against the run's own trace the runtime must return the
// reference; against one that departs, the stored-mode trace.
func TestExpectOutOfInstantOrder(t *testing.T) {
	m := logp.Postal(8, 3)
	half := m.P / 2
	handlers := make([]Handler, m.P)
	for i := range m.P {
		handlers[i] = func(p *Proc, now logp.Time) {
			switch {
			case p.ID < half && now == 0:
				p.Send(now, p.ID+half, p.ID, nil)
			case p.ID >= half && len(p.Received()) > 0:
				p.Send(now, p.ID-half, p.ID, nil)
			}
		}
	}
	rt := new(Runtime)
	run := func(ref *schedule.Schedule) *schedule.Schedule {
		if err := rt.Reset(m, Strict, handlers); err != nil {
			t.Fatal(err)
		}
		if ref != nil {
			rt.Expect(ref)
		}
		rt.Run(100)
		if v := rt.Violations(); len(v) != 0 {
			t.Fatalf("violations: %v", v)
		}
		return rt.Trace()
	}
	want := run(nil)
	if len(want.Events) != 4*half {
		t.Fatalf("%d events, want %d", len(want.Events), 4*half)
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
