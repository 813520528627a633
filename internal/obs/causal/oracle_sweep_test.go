package causal_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"logpopt/internal/baseline"
	"logpopt/internal/combine"
	"logpopt/internal/conform"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/obs/causal"
	"logpopt/internal/schedule"
	"logpopt/internal/sim"
)

// TestAnalyzeOracleSweep compares Analyze with its map-based oracle on every
// conformance constructor, the scale cases and the generated corpus, each as
// the raw schedule and as the simulator's strict and buffered executions.
func TestAnalyzeOracleSweep(t *testing.T) {
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
			if err := causal.SameAsOracle(v.s, c.Origins); err != nil {
				t.Fatalf("%s (%s): %v", c.Name, v.name, err)
			}
		}
	}
}

// TestAnalyzeOracleHub compares Analyze with its oracle on the hub of a
// flat tree, where one processor holds every message: the broadcast and its
// reversed reduce.
func TestAnalyzeOracleHub(t *testing.T) {
	m := logp.MustNew(20_000, 6, 2, 4)
	bc, err := baseline.Schedule(baseline.FlatTree(m, m.P), 0)
	if err != nil {
		t.Fatal(err)
	}
	red := combine.ReduceScheduleWith(m, m.P, baseline.FlatTree)
	for _, c := range []conform.Case{
		{Name: "flat-broadcast", S: bc, Origins: core.Origins(0)},
		{Name: "flat-reduce", S: red, Origins: schedule.DerivedOrigins(red)},
	} {
		if err := causal.SameAsOracle(c.S, c.Origins); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

// TestAnalyzeTies compares Analyze with its oracle where many events tie on
// the causal order's whole key and differ only in duration, many sends
// share one channel, and an item's origin and first reception make it
// available at the same instant, so the order's tie-breaking, the send
// matching and the provider choice all show in the report. Events of
// unknown kinds ride along.
func TestAnalyzeTies(t *testing.T) {
	m := logp.MustNew(4, 5, 1, 2)
	s := &schedule.Schedule{M: m}
	for i := range 40 {
		s.Compute(1, logp.Time(i%3), logp.Time(1+i%7), 2)
		s.Send(0, logp.Time(i%5), 0, 2)
		s.Recv(2, logp.Time(3+i%11), 0, 0)
	}
	s.Send(3, 0, 1, 2)
	s.Recv(2, 6, 1, 3) // item 1 is available at proc 2 at 7 ...
	s.Send(2, 9, 1, 0)
	s.Recv(0, 15, 1, 2)
	// Events of unknown kinds, ordered before and after the known ones.
	s.Append(schedule.Event{Proc: 2, Time: 8, Op: schedule.Op(-1), Item: 1, Peer: 0})
	s.Append(schedule.Event{Proc: 2, Time: 2, Op: schedule.Op(-1), Item: 1, Peer: 3})
	s.Append(schedule.Event{Proc: 0, Time: 4, Op: schedule.Op(7), Item: 0, Peer: 2})
	s.Send(1, 0, 2, 3)
	s.Recv(3, 6, 2, 1)
	s.Send(3, 7, 2, 0)
	s.Recv(0, 13, 2, 3)
	s.Append(schedule.Event{Proc: 3, Time: 1, Op: schedule.Op(-1), Item: 2, Peer: 0})
	origins := map[int]schedule.Origin{0: {Proc: 0}, 1: {Proc: 2, Time: 7}, 2: {Proc: 1}} // ... by origin too
	if err := causal.SameAsOracle(s, origins); err != nil {
		t.Fatal(err)
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

// TestAnalyzeHugeMachine analyzes three events at processors -5, 0 and
// 2^40-1 on a machine with P = 2^40: the tables must size by the event
// count, not by P or the processor values.
func TestAnalyzeHugeMachine(t *testing.T) {
	const top = 1<<40 - 1
	s := &schedule.Schedule{M: logp.MustNew(1<<40, 6, 2, 4), Events: []schedule.Event{
		{Proc: 0, Time: 0, Op: schedule.OpSend, Item: 0, Peer: top},
		{Proc: top, Time: 8, Op: schedule.OpRecv, Item: 0, Peer: 0},
		{Proc: -5, Time: 4, Op: schedule.OpSend, Item: 0, Peer: 0},
	}}
	origins := map[int]schedule.Origin{0: {Proc: 0}}
	if err := causal.SameAsOracle(s, origins); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	causal.Analyze(s, origins)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("Analyze allocated %d bytes on three events", n)
	}
}

// TestAnalyzeWrappingArrivals compares Analyze with its oracle on a machine
// whose latency is so close to the int64 limit that send + o + L wraps for
// all but the earliest sends, so one channel's arrivals are not monotone in
// send order.
func TestAnalyzeWrappingArrivals(t *testing.T) {
	m := logp.MustNew(3, math.MaxInt64-20, 1, 2)
	s := &schedule.Schedule{M: m}
	for i := range 30 {
		s.Send(0, logp.Time(2*i), 0, 1)
		s.Recv(1, logp.Time(i*i%37)-18, 0, 0)
	}
	if err := causal.SameAsOracle(s, map[int]schedule.Origin{0: {Proc: 0}}); err != nil {
		t.Fatal(err)
	}
}
