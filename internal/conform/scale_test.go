package conform

import (
	"fmt"
	"slices"
	"testing"

	"logpopt/internal/baseline"
	"logpopt/internal/combine"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/schedule"
)

// TestScaleCasesConform runs the backend-equivalence contract at the
// processor counts the million-processor engine work targets: broadcast and
// reduction at P = 64 and 1024 always, and P = 1e4 and 1e5 unless -short.
// This is where the in-flight queues hold the most messages at one instant
// and the parallel ready list (runtime) takes over from the small-machine
// code path, so lockstep here means the engines keep the step semantics at
// scale, not just on the small cases.
func TestScaleCasesConform(t *testing.T) {
	ps := []int{64, 1024}
	if !testing.Short() {
		ps = append(ps, 10_000, 100_000)
	}
	ck := NewChecker()
	for _, c := range ScaleCases(ps...) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if diffs := ck.Check(c); len(diffs) != 0 {
				t.Fatalf("%d divergences:\n%s", len(diffs), diffs[0])
			}
		})
	}
}

// TestScaleCasesMatchSearch keeps the heap search as the oracle of the scale
// cases: the counting construction they are built with must emit the heap
// search's broadcast and reduction schedules event for event.
func TestScaleCasesMatchSearch(t *testing.T) {
	for _, p := range []int{64, 1024, 10_000} {
		m, pm := logp.MustNew(p, 6, 2, 4), logp.Postal(p, 3)
		cs := ScaleCases(p)
		if len(cs) != 2 {
			t.Fatalf("P=%d: %d scale cases, want 2", p, len(cs))
		}
		for i, want := range []*schedule.Schedule{core.BroadcastSchedule(m, 0), combine.ReduceSchedule(pm, pm.P)} {
			got := cs[i].S
			if got.M != want.M || !slices.Equal(got.Events, want.Events) {
				t.Fatalf("%s: counting construction differs from the heap search (%d vs %d events on %v vs %v)",
					cs[i].Name, len(got.Events), len(want.Events), got.M, want.M)
			}
		}
	}
}

// TestFlatHubConform runs the backend-equivalence contract on the hub of a
// P = 2·10⁴ flat tree, built as BenchmarkReplayCheck builds it: one
// processor sends every message of the broadcast and receives every message
// of its reversed reduce, so an engine that scans all P processors per
// cycle pays O(P²) here while an event-driven one pays O(E log P).
func TestFlatHubConform(t *testing.T) {
	m := logp.MustNew(20_000, 6, 2, 4)
	flat, err := baseline.Schedule(baseline.FlatTree(m, m.P), 0)
	if err != nil {
		t.Fatal(err)
	}
	flatRed := combine.ReduceScheduleWith(baseline.FlatTree(m, m.P))
	ck := NewChecker()
	for _, c := range []Case{
		{Name: fmt.Sprintf("flat-broadcast/p%d", m.P), S: flat, Origins: core.Origins(0)},
		{Name: fmt.Sprintf("flat-reduce/p%d", m.P), S: flatRed, Origins: schedule.DerivedOrigins(flatRed)},
	} {
		t.Run(c.Name, func(t *testing.T) {
			if diffs := ck.Check(c); len(diffs) != 0 {
				t.Fatalf("%d divergences:\n%s", len(diffs), diffs[0])
			}
		})
	}
}
