package bench

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"logpopt/internal/baseline"
	"logpopt/internal/combine"
	"logpopt/internal/conform"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/obs/causal"
	"logpopt/internal/schedule"
)

// BenchmarkReplayCheck times the checkers on the conformance replay path —
// the causal analyzer, the strict and deferred validators, the availability
// check and a whole Checker.Check — on the P = 10⁵ scale cases and on the
// hub of a P = 2·10⁴ flat tree, where one processor holds every message of
// the broadcast and of its reversed reduce.
func BenchmarkReplayCheck(b *testing.B) {
	cases := conform.ScaleCases(100_000) // broadcast and reduce
	m := logp.MustNew(20_000, 6, 2, 4)
	flat, err := baseline.Schedule(baseline.FlatTree(m, m.P), 0)
	if err != nil {
		b.Fatal(err)
	}
	flatRed := combine.ReduceScheduleWith(baseline.FlatTree(m, m.P))
	cases = append(cases,
		conform.Case{Name: fmt.Sprintf("flat-broadcast/p%d", m.P), S: flat, Origins: core.Origins(0)},
		conform.Case{Name: fmt.Sprintf("flat-reduce/p%d", m.P), S: flatRed, Origins: schedule.DerivedOrigins(flatRed)},
	)
	ck := conform.NewChecker()
	for _, c := range cases {
		steps := []struct {
			name string
			run  func()
		}{
			{"Analyze", func() { causal.Analyze(c.S, c.Origins) }},
			{"Validate", func() { schedule.Validate(c.S) }},
			{"ValidateDeferred", func() { schedule.ValidateDeferred(c.S) }},
			{"CheckAvailability", func() { schedule.CheckAvailability(c.S, c.Origins) }},
			{"Check", func() {
				if diffs := ck.Check(c); len(diffs) != 0 {
					b.Fatal(diffs[0])
				}
			}},
		}
		for _, step := range steps {
			b.Run(c.Name+"/"+step.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					step.run()
				}
			})
		}
	}
}

// BenchmarkSortEvents sorts the P = 10⁵ scale broadcast's events in the
// order the engines record them — by time, and within a time in no
// particular order — into the event order: with the counting EventSorter,
// reusing its scratch as an engine does, and with the comparison sort it
// replaced.
func BenchmarkSortEvents(b *testing.B) {
	c := conform.ScaleCases(100_000)[0]
	in := slices.Clone(c.S.Events)
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	slices.SortStableFunc(in, func(a, b schedule.Event) int { return cmp.Compare(a.Time, b.Time) })
	evs := make([]schedule.Event, len(in))
	var s schedule.EventSorter
	for _, v := range []struct {
		name string
		sort func()
	}{
		{"count", func() { s.Sort(evs) }},
		{"compare", func() { slices.SortFunc(evs, schedule.CompareEvents) }},
	} {
		b.Run(fmt.Sprintf("P%d/%s", c.S.M.P, v.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(evs, in)
				v.sort()
			}
		})
	}
}
