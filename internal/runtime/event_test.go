package runtime

import (
	"reflect"
	"sync/atomic"
	"testing"

	"logpopt/internal/baseline"
	"logpopt/internal/combine"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/obs"
	"logpopt/internal/schedule"
	"logpopt/internal/sim"
)

// replayToDrain runs a schedule replay the way the conformance backend
// does: to the strict horizon, then stepped until the queues drain.
func replayToDrain(rt *Runtime, s *schedule.Schedule) {
	rt.Run(Horizon(s))
	for limit := DrainHorizon(s); rt.Pending() && rt.Now() < limit; {
		rt.Step()
	}
}

// TestFlatHubCostFollowsEvents replays the reversed flat-tree reduce, where
// the hub receives from every leaf one g apart. A lockstep runtime visits
// every leaf's handler on each of the ~P·g cycles (O(P²) calls); the
// event-driven one runs a handler only at time 0, on a reception or on a
// requested wake, and steps only the instants where something is due.
func TestFlatHubCostFollowsEvents(t *testing.T) {
	m := logp.MustNew(2000, 6, 2, 4)
	s := combine.ReduceScheduleWith(baseline.FlatTree(m, m.P))
	og := schedule.DerivedOrigins(s)
	var calls atomic.Int64
	handlers := ReplayHandlers(s, og)
	for i, h := range handlers {
		if h != nil {
			handlers[i] = func(p *Proc, now logp.Time) { calls.Add(1); h(p, now) }
		}
	}
	instants := map[logp.Time]bool{0: true}
	for _, ev := range s.Events {
		instants[ev.Time] = true
	}
	steps := obs.Default.Counter("runtime.steps")
	for _, mode := range []Mode{Strict, Buffered} {
		calls.Store(0)
		before := steps.Value()
		rt, err := New(m, mode, handlers)
		if err != nil {
			t.Fatal(err)
		}
		replayToDrain(rt, s)
		if vs := rt.Violations(); len(vs) != 0 {
			t.Fatalf("mode %d: %v", mode, vs[0])
		}
		E, P := int64(len(s.Events)), int64(m.P)
		if c := calls.Load(); c > 2*(E+P) {
			t.Errorf("mode %d: %d handler calls for E=%d events on P=%d, want O(E+P)", mode, c, E, P)
		}
		if n := steps.Value() - before; n > int64(len(instants)) {
			t.Errorf("mode %d: stepped %d instants, the schedule has events at only %d", mode, n, len(instants))
		}
	}
}

// TestLaterWakeSurvivesEarlierOne asks for a wake at t2 while a wake at t1
// < t2 is still pending, both from one call and from separate calls; every
// request must fire at its own time.
func TestLaterWakeSurvivesEarlierOne(t *testing.T) {
	m := logp.Postal(2, 2)
	var at []logp.Time
	handlers := []Handler{
		func(p *Proc, now logp.Time) {
			at = append(at, now)
			switch now {
			case 0:
				p.WakeAt(4)
				p.WakeAt(9)
				_ = p.Send(now, 1, 0, nil) // back from proc 1 at 4
			case 4:
				p.WakeAt(6) // while the wake for 9 is pending
			}
		},
		func(p *Proc, now logp.Time) {
			if len(p.Received()) > 0 {
				_ = p.Send(now, 0, 1, nil)
			}
		},
	}
	rt, err := New(m, Strict, handlers)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(20)
	if want := []logp.Time{0, 4, 6, 9}; !reflect.DeepEqual(at, want) {
		t.Fatalf("handler ran at %v, want %v", at, want)
	}
}

// TestWarmReplayAllocsIndependentOfP recycles one runtime and one Replayer
// across replays of the optimal broadcast: a warm Reset plus replay must
// allocate as many objects at P = 10⁵ as at P = 10³.
func TestWarmReplayAllocsIndependentOfP(t *testing.T) {
	allocs := func(p int) float64 {
		m := logp.MustNew(p, 6, 2, 4)
		s := core.BroadcastSchedule(m, 0)
		og := core.Origins(0)
		var rp Replayer
		rt, err := New(m, Strict, rp.Handlers(s, og))
		if err != nil {
			t.Fatal(err)
		}
		rt.Run(Horizon(s))
		return testing.AllocsPerRun(5, func() {
			if err := rt.Reset(m, Strict, rp.Handlers(s, og)); err != nil {
				t.Fatal(err)
			}
			rt.Run(Horizon(s))
		})
	}
	small, large := allocs(1_000), allocs(100_000)
	if small != large {
		t.Fatalf("warm replay allocates %v objects at P=1e3 but %v at P=1e5", small, large)
	}
}

// TestIdleRunJumpsToUntil runs a machine with no messages and no wakes far
// into the future: only time 0 is stepped and the clock lands on until.
func TestIdleRunJumpsToUntil(t *testing.T) {
	m := logp.Postal(4, 3)
	handlers := []Handler{func(*Proc, logp.Time) {}, nil, nil, nil}
	rt, err := New(m, Strict, handlers)
	if err != nil {
		t.Fatal(err)
	}
	steps := obs.Default.Counter("runtime.steps")
	before := steps.Value()
	const until = 50_000_000
	rt.Run(until)
	if rt.Now() != until {
		t.Fatalf("clock at %d, want %d", rt.Now(), until)
	}
	if n := steps.Value() - before; n > 1 {
		t.Fatalf("stepped %d instants of an idle run", n)
	}
}

// TestPortWaitParityWithSim replays a contended buffered case on both
// engines and demands the same port-wait observations: the runtime's
// runtime.portwait.cycles and the simulator's sim.recv.wait.cycles must
// grow by equal counts and sums, both counting positive waits only. Leaves
// send to the hub every 3 cycles, within the capacity bound, but the hub
// receives only every g = 4, so its k-th arrival waits k cycles.
func TestPortWaitParityWithSim(t *testing.T) {
	m := logp.MustNew(12, 6, 2, 4)
	s := &schedule.Schedule{M: m}
	og := map[int]schedule.Origin{}
	for i := 1; i < m.P; i++ {
		s.Send(i, logp.Time(3*(i-1)), i, 0)
		og[i] = schedule.Origin{Proc: i}
	}
	rtWait := obs.Default.Histogram("runtime.portwait.cycles")
	simWait := obs.Default.Histogram("sim.recv.wait.cycles")

	n0, s0 := simWait.Count(), simWait.Sum()
	if _, rep := sim.Run(s, sim.Buffered, og); len(rep.Violations) != 0 {
		t.Fatal(rep.Violations[0])
	}
	simN, simS := simWait.Count()-n0, simWait.Sum()-s0

	n0, s0 = rtWait.Count(), rtWait.Sum()
	rt, err := New(m, Buffered, ReplayHandlers(s, og))
	if err != nil {
		t.Fatal(err)
	}
	replayToDrain(rt, s)
	if vs := rt.Violations(); len(vs) != 0 {
		t.Fatal(vs[0])
	}
	rtN, rtS := rtWait.Count()-n0, rtWait.Sum()-s0

	if simN == 0 {
		t.Fatal("case is not contended: the simulator saw no positive port wait")
	}
	if rtN != simN || rtS != simS {
		t.Fatalf("port waits: runtime count %d sum %d, simulator count %d sum %d", rtN, rtS, simN, simS)
	}
}
