package causal_test

import (
	"testing"

	"logpopt/internal/conform"
	"logpopt/internal/obs/causal"
	"logpopt/internal/sim"
)

// FuzzCausal drives the analyzer with the conformance harness's seeded
// schedule generator: on every violation-free generated schedule (strict and
// buffered), the critical-path length must equal the simulator's reported
// finish time, the breakdown must telescope to it exactly, and the gap
// attribution must sum to the total gap for any bound.
func FuzzCausal(f *testing.F) {
	for seed := int64(0); seed < 50; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := conform.Generate(seed)
		for _, mode := range []sim.Mode{sim.Strict, sim.Buffered} {
			eng, rep := sim.Run(c.S, mode, c.Origins)
			if len(rep.Violations) != 0 {
				continue // the analyzer's contract covers valid executions
			}
			r := causal.Analyze(eng.Executed(), c.Origins)
			if r.Finish != rep.Finish {
				t.Fatalf("seed %d mode %v: critical-path finish %d, simulator finish %d",
					seed, mode, r.Finish, rep.Finish)
			}
			if got := r.Achieved.Total(); got != r.Finish {
				t.Fatalf("seed %d mode %v: breakdown totals %d, finish %d (%s)",
					seed, mode, got, r.Finish, r.Achieved)
			}
			for _, st := range r.Path {
				if st.Slack < 0 {
					t.Fatalf("seed %d mode %v: negative slack %d on clean case at %+v",
						seed, mode, st.Slack, st.Event)
				}
			}
			// Attribution sums to the gap for an arbitrary bound and
			// reference split.
			bound := r.Finish / 2
			if err := r.SetBound(bound, causal.Breakdown{Latency: bound}); err != nil {
				t.Fatal(err)
			}
			at := r.Attribution
			sum := at.Latency + at.Overhead + at.Gap + at.Compute + at.Origin + at.Wait
			if sum != r.Gap || r.Gap != r.Finish-bound {
				t.Fatalf("seed %d mode %v: attribution sums to %d, gap %d (finish %d bound %d)",
					seed, mode, sum, r.Gap, r.Finish, bound)
			}
			// And with the trivial zero bound the attribution is the
			// achieved breakdown itself.
			if err := r.SetBound(0, causal.Breakdown{}); err != nil {
				t.Fatal(err)
			}
			if r.Attribution != r.Achieved || r.Gap != r.Finish {
				t.Fatalf("seed %d mode %v: zero-bound attribution %+v != achieved %+v",
					seed, mode, r.Attribution, r.Achieved)
			}
		}
	})
}

// FuzzAnalyzeOracle requires Analyze to equal the map-based oracle — finish,
// path with indices, kinds and slack, breakdown, per-event slack and
// signature — on each generated schedule and on the simulator's strict and
// buffered executions of it, clean or not.
func FuzzAnalyzeOracle(f *testing.F) {
	for seed := int64(0); seed < 50; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := conform.Generate(seed)
		for _, v := range executions(c) {
			if err := causal.SameAsOracle(v.s, c.Origins); err != nil {
				t.Fatalf("seed %d (%s): %v", seed, v.name, err)
			}
		}
	})
}
