package schedule_test

import (
	"fmt"
	"testing"

	"logpopt/internal/baseline"
	"logpopt/internal/combine"
	"logpopt/internal/conform"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/schedule"
	"logpopt/internal/sim"
)

// TestValidatorOracleSweep compares the validator with its map-based oracle
// on every conformance constructor, the scale cases and the generated
// corpus, each as the raw schedule and as the simulator's strict and
// buffered executions.
func TestValidatorOracleSweep(t *testing.T) {
	seeds := int64(3000)
	scale := []int{64, 1024, 10_000}
	if testing.Short() {
		seeds, scale = 300, scale[:2]
	}
	cases := append(conform.PaperCases(), conform.ScaleCases(scale...)...)
	for seed := range seeds {
		cases = append(cases, conform.Generate(seed))
	}
	for _, c := range cases {
		for _, v := range executions(c) {
			if err := schedule.SameAsOracle(v.s, c.Origins); err != nil {
				t.Fatalf("%s (%s): %v", c.Name, v.name, err)
			}
		}
	}
}

// TestValidatorOracleHub compares the validator with its oracle on the
// hub of a flat tree, where one processor holds every message: the
// broadcast and its reversed reduce.
func TestValidatorOracleHub(t *testing.T) {
	for _, c := range hubCases(logp.MustNew(20_000, 6, 2, 4)) {
		if err := schedule.SameAsOracle(c.S, c.Origins); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

type execution struct {
	name string
	s    *schedule.Schedule
}

// executions returns the case's schedule and the simulator's strict and
// buffered executions of it.
func executions(c conform.Case) []execution {
	out := []execution{{"raw", c.S}}
	for _, mode := range []sim.Mode{sim.Strict, sim.Buffered} {
		eng, _ := sim.Run(c.S, mode, c.Origins)
		out = append(out, execution{fmt.Sprint("sim mode ", mode), eng.Executed()})
	}
	return out
}

// hubCases returns a flat-tree broadcast and the reduce that reverses it.
func hubCases(m logp.Machine) []conform.Case {
	bc, err := baseline.Schedule(baseline.FlatTree(m, m.P), 0)
	if err != nil {
		panic(err)
	}
	red := combine.ReduceScheduleWith(m, m.P, baseline.FlatTree)
	return []conform.Case{
		{Name: "flat-broadcast", S: bc, Origins: core.Origins(0)},
		{Name: "flat-reduce", S: red, Origins: schedule.DerivedOrigins(red)},
	}
}
