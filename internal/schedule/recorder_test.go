package schedule

import (
	"math/rand/v2"
	"slices"
	"testing"

	"logpopt/internal/logp"
)

// recorderTrace is a sorted trace with several events per instant and per
// processor at an instant, and repeated events.
func recorderTrace() *Schedule {
	m := logp.MustNew(6, 3, 1, 2)
	s := &Schedule{M: m}
	for at := logp.Time(0); at < 12; at += 2 {
		for p := 0; p < m.P; p += 2 {
			s.Send(p, at, int(at), (p+1)%m.P)
			s.Recv((p+1)%m.P, at, int(at), p)
		}
		s.Send(1, at, 7, 2)
		s.Send(1, at, 7, 2) // the same event twice
	}
	s.Sort()
	return s
}

// record feeds evs to a recorder reset for m, against ref unless it is nil,
// and returns the trace.
func record(r *Recorder, m logp.Machine, ref *Schedule, evs []Event) *Schedule {
	r.Reset(m)
	if ref != nil {
		r.Expect(ref)
	}
	for _, ev := range evs {
		r.Record(ev)
	}
	return r.Trace()
}

// shuffleInstants returns evs with each instant's events in a random order,
// as an engine may execute them.
func shuffleInstants(rng *rand.Rand, evs []Event) []Event {
	out := slices.Clone(evs)
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && out[hi].Time == out[lo].Time {
			hi++
		}
		run := out[lo:hi]
		rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
		lo = hi
	}
	return out
}

// TestRecorderMatchesAndMismatches records a trace whose instants come in
// random orders against the trace itself, which must come back as the
// reference, and against references that differ in one event or in
// length, which must give the stored-mode trace event for event.
func TestRecorderMatchesAndMismatches(t *testing.T) {
	want := recorderTrace()
	n := len(want.Events)
	rng := rand.New(rand.NewPCG(3, 4))
	var r Recorder
	vary := func(f func(evs []Event) []Event) *Schedule {
		evs := f(slices.Clone(want.Events))
		SortEvents(evs)
		return &Schedule{M: want.M, Events: evs}
	}
	at := func(i int, f func(ev *Event)) *Schedule {
		return vary(func(evs []Event) []Event { f(&evs[i]); return evs })
	}
	for round := 0; round < 20; round++ {
		evs := shuffleInstants(rng, want.Events)
		if got := record(&r, want.M, nil, evs); !slices.Equal(got.Events, want.Events) {
			t.Fatalf("round %d: stored trace differs from the sorted events", round)
		}
		ref := &Schedule{M: want.M, Events: slices.Clone(want.Events)}
		if got := record(&r, want.M, ref, evs); got != ref {
			t.Fatalf("round %d: a matching run did not return its reference", round)
		}
		for name, ref := range map[string]*Schedule{
			"first altered":  at(0, func(ev *Event) { ev.Item++ }),
			"middle altered": at(n/2, func(ev *Event) { ev.Peer = 5 }),
			"last altered":   at(n-1, func(ev *Event) { ev.Item++ }),
			"a repeat fewer": vary(func(evs []Event) []Event {
				i := slices.IndexFunc(evs, func(ev Event) bool { return ev.Item == 7 && ev.Time == 4 })
				return slices.Delete(evs, i, i+1)
			}),
			"later instant":   at(n/2, func(ev *Event) { ev.Time++ }),
			"earlier instant": at(n/2, func(ev *Event) { ev.Time-- }),
			"cut short":       vary(func(evs []Event) []Event { return evs[:n-1] }),
			"one longer":      vary(func(evs []Event) []Event { return append(evs, evs[n-1]) }),
			"empty":           {M: want.M},
		} {
			if got := record(&r, want.M, ref, evs); got == ref || !slices.Equal(got.Events, want.Events) {
				t.Fatalf("round %d, reference %s: trace differs from the stored-mode trace", round, name)
			}
		}
	}
}

// TestRecorderOutOfInstantOrder records events that break the time order
// (an event earlier than the instant before it) against the sorted trace:
// the run does not match, and the trace is the stored-mode trace.
func TestRecorderOutOfInstantOrder(t *testing.T) {
	want := recorderTrace()
	ref := &Schedule{M: want.M, Events: slices.Clone(want.Events)}
	var r Recorder
	last := want.Events[len(want.Events)-1].Time
	for _, i := range []int{0, 1, len(want.Events) / 2} {
		if want.Events[i].Time == last {
			t.Fatalf("event %d is in the last instant", i)
		}
		evs := slices.Clone(want.Events)
		late := evs[i]
		evs = append(slices.Delete(evs, i, i+1), late) // event i comes last
		if got := record(&r, want.M, ref, evs); got == ref || !slices.Equal(got.Events, want.Events) {
			t.Fatalf("event %d recorded last: trace differs from the stored-mode trace", i)
		}
	}
}

// TestRecorderHandsOver requires a handed-over trace to survive Reset and
// the next run, a second Trace to return the same trace, and a Record
// after Trace to continue the run.
func TestRecorderHandsOver(t *testing.T) {
	want := recorderTrace()
	var r Recorder
	stored := record(&r, want.M, nil, want.Events)
	if r.Trace() != stored {
		t.Fatal("a second Trace returned another trace")
	}
	keep := slices.Clone(stored.Events)
	ref := &Schedule{M: want.M, Events: slices.Clone(keep)}
	if record(&r, want.M, ref, want.Events) != ref {
		t.Fatal("a matching run did not return its reference")
	}
	record(&r, want.M, nil, want.Events[:5])
	if !slices.Equal(stored.Events, keep) || !slices.Equal(ref.Events, keep) {
		t.Fatal("a handed-over trace changed under the recorder's next runs")
	}

	// A run continued after Trace, against the reference and stored, by an
	// event that sorts first, so that the continued trace's sort moves every
	// event.
	extra := Event{Proc: 0, Time: -1, Op: OpSend, Item: 1, Peer: 1}
	all := append([]Event{extra}, keep...)
	for _, ref := range []*Schedule{ref, nil} {
		first := record(&r, want.M, ref, want.Events)
		r.Record(extra)
		got := r.Trace()
		if got == first || !slices.Equal(got.Events, all) {
			t.Fatalf("reference %v: the continued run's trace is not all of its events", ref != nil)
		}
		if !slices.Equal(first.Events, keep) {
			t.Fatalf("reference %v: the first handed-over trace changed as the run went on", ref != nil)
		}
	}
}
