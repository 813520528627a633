package conform

import (
	"testing"

	"logpopt/internal/alltoall"
	"logpopt/internal/baseline"
	"logpopt/internal/combine"
	"logpopt/internal/core"
	"logpopt/internal/kitem"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/schedule"
	"logpopt/internal/summation"
)

// degenerateMachines are the machine shapes the P=1/P=2 contract is pinned
// on: every constructor must emit an empty schedule finishing at 0 on one
// processor and a single exchange finishing at o+L+o on two.
var degenerateMachines = []logp.Machine{
	logp.MustNew(1, 6, 2, 4),
	logp.MustNew(1, 1, 0, 1),
	logp.MustNew(1, 2, 3, 2),
	logp.MustNew(1, 1<<31, 2, 5),
}

// TestDegenerateP1 sweeps every schedule constructor at P=1: no events, no
// time. This is the regression net for the lower-bound formulas that used to
// go negative (alltoall.LowerBound, alltoall.ScatterLowerBound) and for any
// constructor that would index past a single-node tree.
func TestDegenerateP1(t *testing.T) {
	for _, m := range degenerateMachines {
		empty := func(what string, s *schedule.Schedule) {
			t.Helper()
			if len(s.Events) != 0 || s.Makespan() != 0 {
				t.Errorf("%v: %s at P=1: %d events, makespan %d (want empty, 0)",
					m, what, len(s.Events), s.Makespan())
			}
		}
		empty("broadcast", core.BroadcastSchedule(m, 0))
		empty("logtime broadcast", logtime.BroadcastSchedule(m, 0))
		empty("reduce", combine.ReduceSchedule(m, 1))
		empty("scan", combine.ScanSchedule(m, 1))
		empty("alltoall", alltoall.Schedule(m, 2))
		empty("personalized", alltoall.Personalized(m))
		empty("scatter", alltoall.Scatter(m))
		empty("gather", alltoall.Gather(m))
		for _, tb := range []struct {
			name  string
			build func(logp.Machine, int) *core.Tree
		}{
			{"linear", baseline.LinearTree},
			{"flat", baseline.FlatTree},
			{"binary", baseline.BinaryTree},
			{"binomial", baseline.BinomialTree},
		} {
			tr := tb.build(m, 1)
			if got := baseline.TreeTime(tr); got != 0 {
				t.Errorf("%v: baseline %s at P=1: time %d, want 0", m, tb.name, got)
			}
			s, err := baseline.Schedule(tr, 0)
			if err != nil {
				t.Errorf("%v: baseline %s at P=1: %v", m, tb.name, err)
			} else {
				empty("baseline "+tb.name, s)
			}
		}
		if got := alltoall.LowerBound(m, 3); got != 0 {
			t.Errorf("%v: alltoall.LowerBound at P=1 = %d, want 0", m, got)
		}
		if got := alltoall.ScatterLowerBound(m); got != 0 {
			t.Errorf("%v: ScatterLowerBound at P=1 = %d, want 0", m, got)
		}
		if got, want := core.B(m, 1), logp.Time(0); got != want {
			t.Errorf("%v: B(1) = %d, want 0", m, got)
		}
		if summation.Validate(m) == nil {
			for _, tt := range []logp.Time{0, 1, 7} {
				pl, err := summation.Build(m, tt)
				if err != nil {
					t.Errorf("%v: summation t=%d at P=1: %v", m, tt, err)
					continue
				}
				// A one-processor summation is all local folds: the root
				// folds t+1 operands by the deadline, but nothing may move.
				ps := pl.Schedule()
				for _, ev := range ps.Events {
					if ev.Op == schedule.OpSend || ev.Op == schedule.OpRecv {
						t.Errorf("%v: summation t=%d at P=1 communicates: %+v", m, tt, ev)
					}
				}
				if ps.Makespan() > tt {
					t.Errorf("%v: summation t=%d at P=1 overruns deadline: makespan %d", m, tt, ps.Makespan())
				}
				if n, _ := summation.Capacity(m, tt); n != int64(tt)+1 {
					t.Errorf("%v: capacity(t=%d) at P=1 = %d, want t+1 = %d", m, tt, n, tt+1)
				}
			}
		}
		// The k-item and pipelined constructors document an error for P < 2;
		// pin that they refuse rather than emit garbage.
		if _, err := kitem.Greedy(3, 1, 2, kitem.Strict); err == nil {
			t.Errorf("kitem.Greedy accepted P=1")
		}
		if _, _, err := baseline.SequentialPipelined(3, 1, 2); err == nil {
			t.Errorf("baseline.SequentialPipelined accepted P=1")
		}
	}
}

// TestDegenerateP2 pins the two-processor contract: one send, one receive,
// finish at o+L+o for broadcast and every baseline tree, with each schedule
// replaying cleanly through all five backends.
func TestDegenerateP2(t *testing.T) {
	ck := NewChecker()
	for _, m1 := range degenerateMachines {
		m := m1
		m.P = 2
		if m.L >= 1<<30 {
			continue // the runtime backends step cycle by cycle
		}
		want := m.L + 2*m.O

		s := core.BroadcastSchedule(m, 0)
		if len(s.Events) != 2 {
			t.Errorf("%v: broadcast at P=2 has %d events, want 2", m, len(s.Events))
		}
		for _, d := range ck.Check(Case{Name: "p2-broadcast", S: s, Origins: core.Origins(0)}) {
			t.Errorf("%v: p2 broadcast: %s", m, d)
		}
		if got := core.B(m, 2); got != want {
			t.Errorf("%v: B(2) = %d, want o+L+o = %d", m, got, want)
		}

		for _, tb := range []struct {
			name  string
			build func(logp.Machine, int) *core.Tree
		}{
			{"linear", baseline.LinearTree},
			{"flat", baseline.FlatTree},
			{"binary", baseline.BinaryTree},
			{"binomial", baseline.BinomialTree},
		} {
			tr := tb.build(m, 2)
			if got := baseline.TreeTime(tr); got != want {
				t.Errorf("%v: baseline %s at P=2: time %d, want %d", m, tb.name, got, want)
			}
			bs, err := baseline.Schedule(tr, 0)
			if err != nil {
				t.Errorf("%v: baseline %s at P=2: %v", m, tb.name, err)
				continue
			}
			for _, d := range ck.Check(Case{Name: "p2-" + tb.name, S: bs, Origins: core.Origins(0)}) {
				t.Errorf("%v: p2 %s: %s", m, tb.name, d)
			}
		}

		if got := alltoall.LowerBound(m, 1); got != want {
			t.Errorf("%v: alltoall.LowerBound(k=1) at P=2 = %d, want %d", m, got, want)
		}
		if got := alltoall.ScatterLowerBound(m); got != want {
			t.Errorf("%v: ScatterLowerBound at P=2 = %d, want %d", m, got, want)
		}

		rs := combine.ReduceSchedule(m, 2)
		for _, d := range ck.Check(Case{Name: "p2-reduce", S: rs, Origins: schedule.DerivedOrigins(rs)}) {
			t.Errorf("%v: p2 reduce: %s", m, d)
		}
	}
}
