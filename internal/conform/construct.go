package conform

import (
	"fmt"
	"reflect"

	"logpopt/internal/combine"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/schedule"
	"logpopt/internal/summation"
)

// Constructor is a schedule-construction backend: one full implementation of
// the paper's optimal broadcast, reduction, and summation constructions. The
// harness diffs two of them — the heap-search constructor and the search-free
// logtime constructor — structurally (the emitted schedules must be equal
// event for event, not merely equal in finish time) and then replays the
// constructed schedules through the five executing backends, so a
// construction bug cannot hide behind a coincidentally right makespan.
type Constructor struct {
	Name      string
	Broadcast func(m logp.Machine) *schedule.Schedule
	BTime     func(m logp.Machine, p int) logp.Time
	Reduce    func(m logp.Machine, p int) *schedule.Schedule
	Scan      func(m logp.Machine, p int) *schedule.Schedule
	Summation func(m logp.Machine, t logp.Time) (*schedule.Schedule, error)
}

// SearchConstructor wraps the original heap-search construction path.
func SearchConstructor() Constructor {
	return Constructor{
		Name:      "search",
		Broadcast: func(m logp.Machine) *schedule.Schedule { return core.BroadcastSchedule(m, 0) },
		BTime:     core.B,
		Reduce:    combine.ReduceSchedule,
		Scan:      combine.ScanSchedule,
		Summation: func(m logp.Machine, t logp.Time) (*schedule.Schedule, error) {
			pl, err := summation.Build(m, t)
			if err != nil {
				return nil, err
			}
			return pl.Schedule(), nil
		},
	}
}

// LogtimeConstructor wraps the search-free internal/logtime construction.
func LogtimeConstructor() Constructor {
	return Constructor{
		Name:      "logtime",
		Broadcast: func(m logp.Machine) *schedule.Schedule { return logtime.BroadcastSchedule(m, 0) },
		BTime:     logtime.B,
		Reduce:    logtime.ReduceSchedule,
		Scan:      logtime.ScanSchedule,
		Summation: func(m logp.Machine, t logp.Time) (*schedule.Schedule, error) {
			pl, err := logtime.SummationBuild(m, t)
			if err != nil {
				return nil, err
			}
			return pl.Schedule(), nil
		},
	}
}

// replayHorizon bounds the schedules CheckConstructors forwards to the
// executing backends; longer ones are only compared structurally.
const replayHorizon = 1 << 21

// CheckConstructors diffs the search and logtime constructors on machine m —
// broadcast, B(p) for every p up to m.P, reduction, scan, and (when the
// machine admits lazy summation schedules and sumT >= 0) summation at
// deadline sumT — and replays every constructed schedule through the full
// five-backend equivalence contract. The returned diffs are empty iff the
// constructors agree exactly and their output conforms.
func (ck *Checker) CheckConstructors(m logp.Machine, sumT logp.Time) (diffs []string) {
	a, b := SearchConstructor(), LogtimeConstructor()
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	replay := func(what string, c Case) {
		// The runtime backends advance their virtual clock cycle by cycle, so
		// huge-parameter machines (L past 2^31) are diffed structurally above
		// but not replayed — the structural check is exact either way.
		if c.S.Makespan() > replayHorizon {
			return
		}
		for _, d := range ck.Check(c) {
			add("%s (%s-built): %s", what, b.Name, d)
		}
	}

	for _, p := range btimePs(m.P) {
		if ta, tb := a.BTime(m, p), b.BTime(m, p); ta != tb {
			add("broadcast/%v: B(%d) %s=%d %s=%d", m, p, a.Name, ta, b.Name, tb)
		}
	}
	sa, sb := a.Broadcast(m), b.Broadcast(m)
	if !reflect.DeepEqual(sa, sb) {
		add("broadcast/%v: %s and %s schedules differ (%d vs %d events)",
			m, a.Name, b.Name, len(sa.Events), len(sb.Events))
	} else {
		replay(fmt.Sprintf("broadcast/%v", m), Case{Name: "construct-broadcast", S: sb, Origins: core.Origins(0)})
	}

	ra, rb := a.Reduce(m, m.P), b.Reduce(m, m.P)
	if !reflect.DeepEqual(ra, rb) {
		add("reduce/%v: %s and %s schedules differ", m, a.Name, b.Name)
	} else {
		replay(fmt.Sprintf("reduce/%v", m), Case{Name: "construct-reduce", S: rb, Origins: schedule.DerivedOrigins(rb)})
	}

	ca, cb := a.Scan(m, m.P), b.Scan(m, m.P)
	if !reflect.DeepEqual(ca, cb) {
		add("scan/%v: %s and %s schedules differ", m, a.Name, b.Name)
	} else {
		replay(fmt.Sprintf("scan/%v", m), Case{Name: "construct-scan", S: cb, Origins: schedule.DerivedOrigins(cb)})
	}

	if sumT >= 0 && summation.Validate(m) == nil {
		ua, erra := a.Summation(m, sumT)
		ub, errb := b.Summation(m, sumT)
		switch {
		case (erra == nil) != (errb == nil):
			add("summation/%v t=%d: %s err=%v, %s err=%v", m, sumT, a.Name, erra, b.Name, errb)
		case erra == nil && !reflect.DeepEqual(ua, ub):
			add("summation/%v t=%d: %s and %s schedules differ", m, sumT, a.Name, b.Name)
		case erra == nil:
			replay(fmt.Sprintf("summation/%v t=%d", m, sumT),
				Case{Name: "construct-summation", S: ub, Origins: schedule.DerivedOrigins(ub)})
		}
	}
	return diffs
}

// btimePs picks the processor counts to cross-check B(p) at: every count up
// to 64, then P/2, P-1, and P — exhaustive where the search is cheap,
// boundary-sampled above (the full-tree DeepEqual already pins every node at
// P itself; re-running the search per p would be quadratic at P=1000).
func btimePs(P int) []int {
	var ps []int
	for p := 1; p <= P && p <= 64; p++ {
		ps = append(ps, p)
	}
	for _, p := range []int{P / 2, P - 1, P} {
		if p > 64 {
			ps = append(ps, p)
		}
	}
	return ps
}

// ConstructorMachines is the sweep CheckConstructors is run over by the
// harness CLI and tests: the paper's machines, the non-power-of-two
// processor counts the generators bias toward, both stride regimes (g > o
// and o > g), and a beyond-2^31 latency. Summation deadlines ride along per
// machine (-1: skip).
func ConstructorMachines() []struct {
	M    logp.Machine
	SumT logp.Time
} {
	type mc = struct {
		M    logp.Machine
		SumT logp.Time
	}
	var out []mc
	for _, p := range []int{1, 2, 3, 5, 7, 63, 65, 1000} {
		out = append(out, mc{logp.MustNew(p, 6, 2, 4), 40})
		out = append(out, mc{logp.Postal(p, 3), 12})
	}
	out = append(out,
		mc{logp.MustNew(12, 7, 1, 3), 30},
		mc{logp.MustNew(16, 2, 3, 2), -1},     // o > g: no lazy summation (g < o+1)
		mc{logp.MustNew(64, 1, 0, 1), 20},     // minimal latency
		mc{logp.MustNew(33, 1<<31, 2, 5), -1}, // huge parameters past 2^31
	)
	return out
}
