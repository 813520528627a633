package conform

import (
	"runtime"
	"testing"

	"logpopt/internal/logp"
	"logpopt/internal/schedule"
	"logpopt/internal/sim"
)

// oracleFinishOf is the map-based finishOf the availability table replaced,
// kept verbatim as the test oracle.
func oracleFinishOf(tr *schedule.Schedule, origins map[int]schedule.Origin) logp.Time {
	type key struct{ proc, item int }
	avail := make(map[key]logp.Time)
	for item, og := range origins {
		k := key{og.Proc, item}
		if t, ok := avail[k]; !ok || og.Time < t {
			avail[k] = og.Time
		}
	}
	for _, ev := range tr.Events {
		if ev.Op != schedule.OpRecv {
			continue
		}
		k := key{ev.Proc, ev.Item}
		at := ev.Time + tr.M.O
		if t, ok := avail[k]; !ok || at < t {
			avail[k] = at
		}
	}
	var mx logp.Time
	for _, t := range avail {
		if t > mx {
			mx = t
		}
	}
	return mx
}

// finishOf is traces.finish for one trace on its own.
func finishOf(tr *schedule.Schedule, origins map[int]schedule.Origin) logp.Time {
	return newTraces(origins).finish(tr)
}

// TestFinishOfOracle compares finishOf with its oracle on the paper cases
// and the generated corpus, raw and as strict and buffered executions.
func TestFinishOfOracle(t *testing.T) {
	seeds := int64(3000)
	if testing.Short() {
		seeds = 300
	}
	cases := PaperCases()
	for seed := range seeds {
		cases = append(cases, Generate(seed))
	}
	for _, c := range cases {
		trs := []*schedule.Schedule{c.S}
		for _, mode := range []sim.Mode{sim.Strict, sim.Buffered} {
			eng, _ := sim.Run(c.S, mode, c.Origins)
			trs = append(trs, eng.Executed())
		}
		for i, tr := range trs {
			if got, want := finishOf(tr, c.Origins), oracleFinishOf(tr, c.Origins); got != want {
				t.Fatalf("%s (trace %d): finishOf = %d, oracle %d", c.Name, i, got, want)
			}
		}
	}
}

// TestFinishOfHugeMachine runs finishOf on three events at processors -5, 0
// and 2^40-1 of a machine with P = 2^40: its table must size by the event
// count, not by P or the processor values.
func TestFinishOfHugeMachine(t *testing.T) {
	const top = 1<<40 - 1
	tr := &schedule.Schedule{M: logp.MustNew(1<<40, 6, 2, 4), Events: []schedule.Event{
		{Proc: 0, Time: 0, Op: schedule.OpSend, Item: 0, Peer: top},
		{Proc: top, Time: 8, Op: schedule.OpRecv, Item: 0, Peer: 0},
		{Proc: -5, Time: 4, Op: schedule.OpRecv, Item: 1, Peer: 0},
	}}
	origins := map[int]schedule.Origin{0: {Proc: 0}, 1: {Proc: -5, Time: 20}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := finishOf(tr, origins)
	runtime.ReadMemStats(&after)
	if want := oracleFinishOf(tr, origins); got != want {
		t.Fatalf("finishOf = %d, oracle %d", got, want)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("finishOf allocated %d bytes on three events", n)
	}
}
