package conform

import (
	"fmt"

	"logpopt/internal/alltoall"
	"logpopt/internal/combine"
	"logpopt/internal/continuous"
	"logpopt/internal/core"
	"logpopt/internal/kitem"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/schedule"
	"logpopt/internal/summation"
)

// PaperCases adapts every schedule constructor in the repository — optimal
// broadcast, k-item broadcast (grid, general, greedy strict and buffered,
// staggered), continuous broadcast, all-to-all with scatter/gather, combine
// (reduce and scan), and summation — into conformance cases. Constructors
// that cannot build an instance for the chosen parameters are skipped; the
// adapters never fail, so the list is safe to iterate in tests, the fuzz
// target, and the CLI.
func PaperCases() []Case {
	var cs []Case
	add := func(name string, s *schedule.Schedule, og map[int]schedule.Origin) {
		cs = append(cs, Case{Name: name, S: s, Origins: og})
	}

	for _, m := range []logp.Machine{
		logp.MustNew(8, 6, 2, 4),
		logp.Postal(16, 3),
		logp.MustNew(12, 7, 1, 3),
	} {
		add("broadcast/"+m.String(), logtime.BroadcastSchedule(m, 0), core.Origins(0))
	}

	if _, s, err := kitem.ViaContinuous(3, 8, 10); err == nil {
		add("kitem-grid/l3-t8-k10", s, kitem.Origins(10))
	}
	if _, s, err := kitem.OptimalGeneral(3, 12, 6); err == nil {
		add("kitem-general/l3-p12-k6", s, kitem.Origins(6))
	}
	for _, mode := range []kitem.Mode{kitem.Strict, kitem.Buffered} {
		if r, err := kitem.Greedy(4, 9, 5, mode); err == nil {
			add(fmt.Sprintf("kitem-greedy/mode%d", mode), r.Schedule, kitem.Origins(5))
		}
	}
	if r, err := kitem.Staggered(4, 10, 6); err == nil {
		add("kitem-staggered/l4-p10-k6", r.Schedule, kitem.Origins(6))
	}

	if _, s, err := continuous.SolveAndSchedule(4, 10, 7); err == nil {
		add("continuous/l4-t10-k7", s, continuous.Origins(7))
	}

	for _, p := range []int{5, 9} {
		m := logp.Postal(p, 3)
		add(fmt.Sprintf("alltoall/p%d", p), alltoall.Schedule(m, 2), alltoall.Origins(m, 2))
	}
	{
		m := logp.MustNew(9, 6, 2, 4)
		og := make(map[int]schedule.Origin)
		for j := 1; j < m.P; j++ {
			og[j] = schedule.Origin{Proc: 0}
		}
		add("scatter", alltoall.Scatter(m), og)
		og2 := make(map[int]schedule.Origin)
		for j := 1; j < m.P; j++ {
			og2[j] = schedule.Origin{Proc: j}
		}
		add("gather", alltoall.Gather(m), og2)
	}

	{
		m := logp.Postal(13, 3)
		red := combine.ReduceSchedule(m, m.P)
		add("reduce/p13", red, schedule.DerivedOrigins(red))
		scan := combine.ScanSchedule(m, m.P)
		add("scan/p13", scan, schedule.DerivedOrigins(scan))
	}

	{
		m := logp.MustNew(32, 4, 1, 2)
		if pl, err := summation.Build(m, 24); err == nil {
			s := pl.Schedule()
			add("summation/t24", s, schedule.DerivedOrigins(s))
		}
	}

	return cs
}

// ScaleCases builds large-P conformance cases: the paper's optimal broadcast
// on a general LogP machine and the reduction (summation tree) on a postal
// machine, at each requested processor count. These are the cases the
// million-processor engine work is graded on — the backends must stay in
// lockstep not just on the small paper instances but where the in-flight
// queues hold the most and the worker-pool runtime actually engages. The trees come
// from the production counting construction (internal/logtime), which
// builds the heap search's trees event for event (TestScaleCasesMatchSearch).
func ScaleCases(ps ...int) []Case {
	var cs []Case
	for _, p := range ps {
		m := logp.MustNew(p, 6, 2, 4)
		cs = append(cs, Case{
			Name:    fmt.Sprintf("scale-broadcast/p%d", p),
			S:       logtime.BroadcastSchedule(m, 0),
			Origins: core.Origins(0),
		})
		pm := logp.Postal(p, 3)
		red := combine.ReduceSchedule(pm, pm.P)
		cs = append(cs, Case{
			Name:    fmt.Sprintf("scale-reduce/p%d", p),
			S:       red,
			Origins: schedule.DerivedOrigins(red),
		})
	}
	return cs
}
