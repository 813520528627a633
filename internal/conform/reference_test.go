package conform

import (
	goruntime "runtime"
	"slices"
	"testing"

	"logpopt/internal/obs"
	"logpopt/internal/par"
	"logpopt/internal/schedule"
)

// TestDeriveMatchesValidatorDerivation requires the reference, built from
// the sorted sends, to be the validator's derived trace built the direct
// way: every send and its reception appended in the schedule's order, then
// sorted.
func TestDeriveMatchesValidatorDerivation(t *testing.T) {
	cases := append(PaperCases(), degenerateCases()...)
	for seed := range int64(200) {
		cases = append(cases, Generate(seed))
	}
	for _, c := range cases {
		m := c.S.M
		want := &schedule.Schedule{M: m}
		for _, ev := range c.S.Events {
			if ev.Op != schedule.OpSend {
				continue
			}
			want.Send(ev.Proc, ev.Time, ev.Item, ev.Peer)
			if ev.Peer >= 0 && ev.Peer < m.P && ev.Peer != ev.Proc {
				want.Recv(ev.Peer, ev.Time+m.O+m.L, ev.Item, ev.Proc)
			}
		}
		want.Sort()
		if got := derive(sortedSends(c.S)); got.M != m || !slices.Equal(got.Events, want.Events) {
			t.Fatalf("%s: the reference differs from the validator's derivation", c.Name)
		}
	}
}

// engineBackends returns a Checker's four executing backends.
func engineBackends(ck *Checker) []backend {
	return []backend{ck.simStrict, ck.simBuf, ck.rtStrict, ck.rtBuf}
}

// withReference returns a Check's traces for c whose reference is ref.
func withReference(c Case, ref *schedule.Schedule) *traces {
	t := newTraces(c.Origins)
	t.refOnce.Do(func() { t.ref = ref })
	return t
}

// TestReplayAgainstReference replays cases on every engine backend against
// references that depart from the backend's run by one event, by an event
// moved to another instant or in length:
// the trace must equal the backend's trace replayed on its own, event for
// event. Against the case's own reference, a run that executes it (every
// strict run of a clean case does) must return the reference itself.
func TestReplayAgainstReference(t *testing.T) {
	cases := append(ScaleCases(64), PaperCases()[:4]...)
	for seed := range int64(20) {
		cases = append(cases, Generate(seed))
	}
	ck := NewChecker()
	matched := 0
	for _, c := range cases {
		for _, b := range engineBackends(ck) {
			alone := b.Replay(c)
			want := slices.Clone(alone.Trace.Events)
			n := len(want)
			if n < 3 {
				continue
			}
			vary := func(f func(evs []schedule.Event) []schedule.Event) *schedule.Schedule {
				evs := f(slices.Clone(want))
				schedule.SortEvents(evs)
				return &schedule.Schedule{M: c.S.M, Events: evs}
			}
			at := func(i int, f func(ev *schedule.Event)) *schedule.Schedule {
				return vary(func(evs []schedule.Event) []schedule.Event { f(&evs[i]); return evs })
			}
			for name, ref := range map[string]*schedule.Schedule{
				"first altered":   at(0, func(ev *schedule.Event) { ev.Item += 1000 }),
				"middle altered":  at(n/2, func(ev *schedule.Event) { ev.Item += 1000 }),
				"last altered":    at(n-1, func(ev *schedule.Event) { ev.Item += 1000 }),
				"later instant":   at(n/2, func(ev *schedule.Event) { ev.Time++ }),
				"earlier instant": at(n/2, func(ev *schedule.Event) { ev.Time-- }),
				"cut short":       vary(func(evs []schedule.Event) []schedule.Event { return evs[:n-1] }),
				"last instant longer": vary(func(evs []schedule.Event) []schedule.Event {
					last := evs[n-1]
					last.Item += 1000
					return append(evs, last)
				}),
			} {
				r := b.replayIn(c, withReference(c, ref))
				if r.Trace == ref || !slices.Equal(r.Trace.Events, want) {
					t.Fatalf("%s on %s, reference %s: trace differs from the backend's trace on its own",
						c.Name, b.Name(), name)
				}
			}
			tr := newTraces(c.Origins)
			r := b.replayIn(c, tr)
			if !slices.Equal(r.Trace.Events, want) {
				t.Fatalf("%s on %s: trace against the case's reference differs from the trace on its own", c.Name, b.Name())
			}
			if slices.Equal(want, tr.ref.Events) {
				matched++
				if r.Trace != tr.ref {
					t.Errorf("%s on %s: a run that executed the reference did not return it", c.Name, b.Name())
				}
			}
		}
	}
	if matched < 8 {
		t.Fatalf("only %d runs executed their reference", matched)
	}
}

// TestReplayTracesSurviveNextReplay requires a trace a backend handed over
// to stay intact when the backend's engine, shared by a Checker's strict
// and buffered backends, replays the next case.
func TestReplayTracesSurviveNextReplay(t *testing.T) {
	a, b := ScaleCases(64)[0], Generate(7)
	ck := NewChecker()
	for _, pair := range [][2]backend{{ck.simStrict, ck.simBuf}, {ck.rtStrict, ck.rtBuf}} {
		first := pair[0].Replay(a).Trace
		keep := slices.Clone(first.Events)
		pair[1].Replay(b)
		pair[0].Replay(b)
		if !slices.Equal(first.Events, keep) {
			t.Errorf("%s: a handed-over trace changed under the next replays", pair[0].Name())
		}
	}
}

// TestCheckCountersDeterministic runs the paper cases and 300 seeds at
// GOMAXPROCS 1 and 2 and requires every conform.* counter to rise by the
// same amount at both widths.
func TestCheckCountersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("checks the paper and seed corpus twice")
	}
	cases := PaperCases()
	for seed := range int64(300) {
		cases = append(cases, Generate(seed))
	}
	counters := map[string]*obs.Counter{
		"cases": mCases, "divergences": mDivergences, "analyses": mAnalyses,
		"indexes": mIndexes, "availabilities": mAvailabilities, "trace_compares": mTraceCompares,
		"shrink.trials": mShrinkTrials, "shrink.steps": mShrinkSteps,
	}
	run := func(width int) map[string]int64 {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(width))
		defer par.SetLimit(par.Limit())
		par.SetLimit(width)
		before := map[string]int64{}
		for name, c := range counters {
			before[name] = c.Value()
		}
		ck := NewChecker()
		for _, c := range cases {
			ck.Check(c)
		}
		delta := map[string]int64{}
		for name, c := range counters {
			delta[name] = c.Value() - before[name]
		}
		return delta
	}
	one, two := run(1), run(2)
	for name := range counters {
		if one[name] != two[name] {
			t.Errorf("conform.%s rose by %d at GOMAXPROCS 1 and by %d at 2", name, one[name], two[name])
		}
	}
	if one["cases"] != int64(len(cases)) || one["trace_compares"] == 0 {
		t.Fatalf("counters did not move: %v", one)
	}
}
