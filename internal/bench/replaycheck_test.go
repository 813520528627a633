package bench

import (
	"fmt"
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
// the causal analyzer, the strict and deferred validators and the
// availability check — on the P = 10⁵ scale cases and on the hub of a
// P = 2·10⁴ flat tree, where one processor holds every message of the
// broadcast and of its reversed reduce. A whole Checker.Check runs on the
// scale cases only: on the hub its engine replays take tens of seconds.
func BenchmarkReplayCheck(b *testing.B) {
	cases := conform.ScaleCases(100_000) // broadcast and reduce
	m := logp.MustNew(20_000, 6, 2, 4)
	flat, err := baseline.Schedule(baseline.FlatTree(m, m.P), 0)
	if err != nil {
		b.Fatal(err)
	}
	flatRed := combine.ReduceScheduleWith(m, m.P, baseline.FlatTree)
	cases = append(cases,
		conform.Case{Name: fmt.Sprintf("flat-broadcast/p%d", m.P), S: flat, Origins: core.Origins(0)},
		conform.Case{Name: fmt.Sprintf("flat-reduce/p%d", m.P), S: flatRed, Origins: schedule.DerivedOrigins(flatRed)},
	)
	ck := conform.NewChecker()
	for i, c := range cases {
		type step struct {
			name string
			run  func()
		}
		steps := []step{
			{"Analyze", func() { causal.Analyze(c.S, c.Origins) }},
			{"Validate", func() { schedule.Validate(c.S) }},
			{"ValidateDeferred", func() { schedule.ValidateDeferred(c.S) }},
			{"CheckAvailability", func() { schedule.CheckAvailability(c.S, c.Origins) }},
		}
		if i < 2 {
			steps = append(steps, step{"Check", func() {
				if diffs := ck.Check(c); len(diffs) != 0 {
					b.Fatal(diffs[0])
				}
			}})
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
