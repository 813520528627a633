package causal_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"logpopt/internal/conform"
	"logpopt/internal/logp"
	"logpopt/internal/obs/causal"
	"logpopt/internal/schedule"
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

// FuzzIndexedChecks requires the checks that share one trace index and one
// availability table, as conform's Check runs them, to equal the standalone
// public calls that build their own: ValidateBoth, Validate and
// ValidateDeferred, Availability and CheckAvailability, and Analyze, which
// must also equal its map-based oracle. Bytes decode into a small machine
// and an unsorted trace whose processors and peers range past both ends of
// [0, P), whose ops include unknown kinds, and whose events may repeat
// exactly or as a copy that differs only in duration; a high latency byte
// puts L near 2⁶³, so that send + o + L wraps. The same checks then run on
// the trace in the event order, whose analysis must explain the same finish
// by the same path.
func FuzzIndexedChecks(f *testing.F) {
	const maxRecords = 32 // small traces keep minimization fast
	f.Add([]byte{3, 2, 1, 1, 0, 0, 0, 1, 5})
	f.Add([]byte{8, 6, 2, 4, 0, 0, 10, 1, 3, 1, 1, 18, 1, 0})
	// Duplicates and computes that differ only in duration.
	f.Add([]byte{4, 3, 1, 1, 1, 9, 3, 0, 2, 1, 9, 8, 0, 2, 1, 5, 12, 1, 0, 1, 5, 17, 2, 0, 2, 14, 6, 1, 0})
	// Negative and beyond-P processors and peers, on both message ends.
	f.Add([]byte{3, 2, 1, 1, 0, 9, 0, 1, 0, 11, 12, 1, 1, 9, 1, 0, 0, 0, 0})
	// Wrapping arrivals.
	f.Add([]byte{3, 0xf3, 1, 1, 0, 10, 1, 0, 1, 1, 200, 2, 0, 0, 0, 30, 1, 0, 1, 1, 3, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		m := logp.Machine{
			P: int(data[0]%8) + 1,
			L: logp.Time(data[1]%8) + 1,
			O: logp.Time(data[2] % 4),
			G: logp.Time(data[3]%4) + 1,
		}
		if data[1] >= 0xf0 {
			m.L = math.MaxInt64 - logp.Time(data[1]%16)*8
		}
		s := &schedule.Schedule{M: m}
		for rest := data[4:min(len(data), 4+5*maxRecords)]; len(rest) >= 5; rest = rest[5:] {
			ev := schedule.Event{
				Proc: int(rest[0]%12) - 2,
				Time: logp.Time(rest[1]) - 8,
				Op:   schedule.Op(int(rest[2]%5) - 1),
				Item: int(rest[3] % 6),
				Peer: int(rest[4]%12) - 2,
				Dur:  logp.Time(rest[4] % 5),
			}
			s.Append(ev)
			switch rest[2] / 5 % 4 {
			case 1:
				s.Append(ev)
			case 2:
				ev.Dur++
				s.Append(ev)
			}
		}
		origins := map[int]schedule.Origin{0: {Proc: 0}, 1: {Proc: 0, Time: 3}, 2: {Proc: -1}, 3: {Proc: 9, Time: 1}}

		sorted := &schedule.Schedule{M: m, Events: slices.Clone(s.Events)}
		sorted.Sort()
		var reports [2]*causal.Report
		for i, tr := range []*schedule.Schedule{s, sorted} {
			x := schedule.NewIndex(tr)
			av := x.Availability(origins)
			strict, deferred := x.ValidateBoth()
			for _, c := range []struct {
				name      string
				got, want []schedule.Violation
			}{
				{"ValidateBoth (strict)", strict, schedule.Validate(tr)},
				{"ValidateBoth (deferred)", deferred, schedule.ValidateDeferred(tr)},
				{"Validate", x.Validate(), schedule.Validate(tr)},
				{"AvailTable.Check", av.Check(x), schedule.CheckAvailability(tr, origins)},
			} {
				if !slices.Equal(c.got, c.want) {
					t.Fatalf("trace %d: indexed %s %v, standalone %v", i, c.name, c.got, c.want)
				}
			}
			if want := schedule.Availability(tr, origins); !reflect.DeepEqual(av, want) {
				t.Fatalf("trace %d: indexed availability %+v, standalone %+v", i, av, want)
			}
			reports[i] = causal.AnalyzeIndex(x, &av, origins)
			if want := causal.Analyze(tr, origins); !reflect.DeepEqual(reports[i], want) {
				t.Fatalf("trace %d: indexed analysis\n%s\nstandalone\n%s", i, reports[i], want)
			}
			if err := causal.SameAsOracle(tr, origins); err != nil {
				t.Fatalf("trace %d: %v", i, err)
			}
		}
		if a, b := reports[0], reports[1]; a.Signature() != b.Signature() || a.Achieved != b.Achieved {
			t.Fatalf("unsorted trace explained as %s (%s), sorted as %s (%s)", a.Signature(), a.Achieved, b.Signature(), b.Achieved)
		}
	})
}
