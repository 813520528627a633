package sim

import (
	"reflect"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/kitem"
	"logpopt/internal/logp"
	"logpopt/internal/obs/timeseries"
	"logpopt/internal/schedule"
)

// TestResetReplayEquivalence replays a batch of schedules twice — fresh
// engines via Run, and one recycled engine via Reset + Replay — and requires
// identical reports and executed schedules, in both reception modes.
func TestResetReplayEquivalence(t *testing.T) {
	type job struct {
		name    string
		mode    Mode
		build   func() (*scheduleWithOrigins, error)
		nonzero bool
	}
	broadcast := func(m logp.Machine) func() (*scheduleWithOrigins, error) {
		return func() (*scheduleWithOrigins, error) {
			return &scheduleWithOrigins{core.BroadcastSchedule(m, 0), core.Origins(0)}, nil
		}
	}
	greedy := func(l logp.Time, p, k int, mode kitem.Mode) func() (*scheduleWithOrigins, error) {
		return func() (*scheduleWithOrigins, error) {
			res, err := kitem.Greedy(l, p, k, mode)
			if err != nil {
				return nil, err
			}
			return &scheduleWithOrigins{res.Schedule, kitem.Origins(k)}, nil
		}
	}
	jobs := []job{
		{"broadcast-logp", Strict, broadcast(logp.MustNew(8, 6, 2, 4)), true},
		{"broadcast-postal", Strict, broadcast(logp.Postal(41, 3)), true},
		{"kitem-strict", Strict, greedy(3, 10, 6, kitem.Strict), true},
		{"kitem-buffered", Buffered, greedy(3, 10, 6, kitem.Buffered), true},
	}
	var recycled *Engine
	for _, j := range jobs {
		sw, err := j.build()
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		eFresh, repFresh := Run(sw.s, j.mode, sw.origins)
		if recycled == nil {
			recycled = New(sw.s.M, j.mode)
		} else {
			recycled.Reset(sw.s.M, j.mode)
		}
		repRe := recycled.Replay(sw.s, sw.origins)
		if repFresh.Finish != repRe.Finish || repFresh.MaxBuffer != repRe.MaxBuffer ||
			len(repFresh.Violations) != len(repRe.Violations) {
			t.Errorf("%s: fresh report %+v, recycled report %+v", j.name, repFresh, repRe)
		}
		if j.nonzero && repFresh.Finish == 0 {
			t.Errorf("%s: finish 0, schedule did nothing", j.name)
		}
		exFresh, exRe := eFresh.Executed(), recycled.Executed()
		if !reflect.DeepEqual(exFresh.Events, exRe.Events) {
			t.Errorf("%s: executed schedules differ (fresh %d events, recycled %d events)",
				j.name, len(exFresh.Events), len(exRe.Events))
		}
	}
}

type scheduleWithOrigins struct {
	s       *schedule.Schedule
	origins map[int]schedule.Origin
}

// BenchmarkSimReplayFresh replays an optimal broadcast schedule on a fresh
// engine every iteration (the old Run path).
func BenchmarkSimReplayFresh(b *testing.B) {
	m := logp.MustNew(32, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	og := core.Origins(0)
	events0 := mEvents.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep := Run(s, Strict, og)
		if len(rep.Violations) != 0 {
			b.Fatal(rep.Violations)
		}
	}
	b.ReportMetric(float64(mEvents.Value()-events0)/float64(b.N), "events/op")
}

// BenchmarkSimReplayReuse replays the same schedule on one recycled engine
// (Reset + Replay), the allocation-free steady state.
func BenchmarkSimReplayReuse(b *testing.B) {
	m := logp.MustNew(32, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	og := core.Origins(0)
	e := New(m, Strict)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(m, Strict)
		rep := e.Replay(s, og)
		if len(rep.Violations) != 0 {
			b.Fatal(rep.Violations)
		}
	}
}

// BenchmarkSimReplayTimeseriesOff is the disabled-collector overhead gate:
// the engine with TS == nil must run within noise of an uninstrumented
// replay (the budget is < 2% — the hot loop pays one nil check per cycle).
// Compare against BenchmarkSimReplayReuse in BENCH_3.json.
func BenchmarkSimReplayTimeseriesOff(b *testing.B) {
	m := logp.MustNew(256, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	og := core.Origins(0)
	e := New(m, Strict)
	e.TS = nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(m, Strict)
		rep := e.Replay(s, og)
		if len(rep.Violations) != 0 {
			b.Fatal(rep.Violations)
		}
	}
}

// BenchmarkSimReplayTimeseriesOn measures the collector's enabled cost with
// per-cycle sampling — the worst case; windowed sampling is strictly
// cheaper.
func BenchmarkSimReplayTimeseriesOn(b *testing.B) {
	m := logp.MustNew(256, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	og := core.Origins(0)
	e := New(m, Strict)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TS = timeseries.New(64)
		e.Reset(m, Strict)
		rep := e.Replay(s, og)
		if len(rep.Violations) != 0 {
			b.Fatal(rep.Violations)
		}
	}
}

// TestLargePReplayAllocationStability checks the engine's steady state at
// P=1e5: after one warm-up Reset+Replay of an optimal broadcast, further
// replays must not allocate proportionally to P or to the event count.
func TestLargePReplayAllocationStability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-processor schedule")
	}
	const p = 100_000
	m := logp.MustNew(p, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	og := core.Origins(0)
	e := New(m, Strict)
	warm := e.Replay(s, og)
	if len(warm.Violations) != 0 {
		t.Fatalf("broadcast replay not clean: %v", warm.Violations[0])
	}
	if warm.Finish == 0 {
		t.Fatal("replay did nothing")
	}
	allocs := testing.AllocsPerRun(3, func() {
		e.Reset(m, Strict)
		rep := e.Replay(s, og)
		if rep.Finish != warm.Finish {
			t.Fatalf("recycled finish %d, fresh finish %d", rep.Finish, warm.Finish)
		}
	})
	// The 2P-2 events of the replay must reuse the engine's storage; a
	// small constant of bookkeeping allocations is fine, O(P) is not.
	if allocs > 64 {
		t.Fatalf("warm Reset+Replay at P=%d allocates %.0f times per run; storage is not being recycled", p, allocs)
	}
}

// TestResetShrinksAfterHugeRun checks the retain-watermark decay: one huge
// case must not pin its capacity across a subsequent sweep of small cases.
func TestResetShrinksAfterHugeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 50k-processor schedule")
	}
	big := logp.MustNew(50_000, 6, 2, 4)
	bigSched := core.BroadcastSchedule(big, 0)
	small := logp.MustNew(8, 6, 2, 4)
	smallSched := core.BroadcastSchedule(small, 0)
	og := core.Origins(0)

	e := New(big, Strict)
	if rep := e.Replay(bigSched, og); rep.Finish == 0 {
		t.Fatal("big replay did nothing")
	}
	grown := e.rec.Retained()
	if grown < len(bigSched.Events) {
		t.Fatalf("executed capacity %d did not grow to the big case's %d events", grown, len(bigSched.Events))
	}
	// The same case in Buffered mode queues thousands of same-instant
	// arrivals at once in the buffered-message slab.
	e.Reset(big, Buffered)
	if rep := e.Replay(bigSched, og); len(rep.Violations) != 0 {
		t.Fatalf("big buffered replay not clean: %v", rep.Violations[0])
	}
	msgsGrown := msgSlabCap(e)
	if msgsGrown <= 4096 {
		t.Fatalf("buffered-message slab grew only to %d on the big case", msgsGrown)
	}

	// The watermark decays by a quarter per Reset; a dozen small cases is
	// far past the point where every big-run capacity is oversized.
	for i := 0; i < 16; i++ {
		e.Reset(small, Strict)
		if rep := e.Replay(smallSched, og); len(rep.Violations) != 0 {
			t.Fatalf("small replay %d not clean: %v", i, rep.Violations[0])
		}
	}
	e.Reset(small, Strict)
	if c := e.rec.Retained(); c >= grown {
		t.Errorf("executed capacity still %d after the sweep (big run grew it to %d)", c, grown)
	}
	if c := cap(e.procs); c >= big.P {
		t.Errorf("proc slab capacity still %d after the sweep (big run had P=%d)", c, big.P)
	}
	if c := cap(e.avail.entries); c > 4096 {
		t.Errorf("availability slab capacity still %d after the sweep", c)
	}
	if c := cap(e.inflight.buf); c > 4096 {
		t.Errorf("in-flight queue retains %d capacity after the sweep", c)
	}
	if c := msgSlabCap(e); c > 4096 {
		t.Errorf("buffered-message slab retains %d capacity after the sweep (big run grew it to %d)", c, msgsGrown)
	}
	// And the shrunken engine still works.
	if rep := e.Replay(smallSched, og); len(rep.Violations) != 0 || rep.Finish == 0 {
		t.Fatalf("engine broken after shrink: %+v", rep)
	}
}

// msgSlabCap returns the capacity of the engine's buffered-message slab,
// whose record slice is unexported in package slab.
func msgSlabCap(e *Engine) int {
	return reflect.ValueOf(&e.msgs).Elem().FieldByName("recs").Cap()
}
