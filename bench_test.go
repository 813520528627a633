// Benchmarks: one per paper figure and table. Each benchmark regenerates
// the corresponding artifact (schedule construction + verification), so
// `go test -bench=. -benchmem` measures the cost of reproducing the paper's
// entire evaluation. The printed artifacts themselves come from
// cmd/logpbench and are recorded in EXPERIMENTS.md.
package logpopt_test

import (
	"testing"

	logpopt "logpopt"
	"logpopt/internal/bench"
)

// BenchmarkFigure1 regenerates Figure 1 (optimal tree + activity chart,
// P=8, L=6, o=2, g=4).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Continuous regenerates Figure 2 (T9, block-cyclic words
// and the complete 8-item schedule for L=3, P-1=9).
func BenchmarkFigure2Continuous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Digraph regenerates Figure 3 (block transmission digraph,
// L=3, P-1=41).
func BenchmarkFigure3Digraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4BlockTable regenerates Figure 4 (size-7 block reception
// table, L=5, k=16).
func BenchmarkFigure4BlockTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Buffered regenerates Figure 5 (14-item broadcast, L=3,
// P-1=13, finish 24).
func BenchmarkFigure5Buffered(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Summation regenerates Figure 6 (optimal summation,
// t=28, P=8, L=5, g=4, o=2).
func BenchmarkFigure6Summation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPt sweeps Theorem 2.2's table (P(t) = f_t).
func BenchmarkPt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.Theorem22(10, 24)
	}
}

// BenchmarkSingleItemSchedule measures optimal single-item schedule
// construction + validation on a 1024-processor postal machine.
func BenchmarkSingleItemSchedule(b *testing.B) {
	m := logpopt.Postal(1024, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := logpopt.BroadcastSchedule(m, 0)
		if vs := logpopt.ValidateBroadcastSchedule(s, logpopt.BroadcastOrigins(0)); len(vs) != 0 {
			b.Fatal(vs[0])
		}
	}
}

// BenchmarkKItem regenerates the Theorem 3.1/3.6/3.8 comparison table.
func BenchmarkKItem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.KItemTable()
	}
}

// BenchmarkKItemOptimalSchedule measures the optimal k-item route alone
// (L=3, P-1=P(11)=41, k=32).
func BenchmarkKItemOptimalSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := logpopt.KItemOptimal(3, 11, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContinuous regenerates the Theorem 3.3/3.4 solvability table
// (small sweep).
func BenchmarkContinuous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.ContinuousTable(1)
	}
}

// BenchmarkContinuousSolveLarge solves one large continuous instance
// (L=3, t=20, P-1=1278) through the inductive composition.
func BenchmarkContinuousSolveLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst, err := logpopt.NewContinuous(3, 20)
		if err != nil {
			b.Fatal(err)
		}
		if err := inst.Solve(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllToAll regenerates the Section 4.1 bound table.
func BenchmarkAllToAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.AllToAllTable()
	}
}

// BenchmarkCombine regenerates the Theorem 4.1 table.
func BenchmarkCombine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.CombineTable(5)
	}
}

// BenchmarkCombineRun measures one 233-processor all-reduce execution
// (L=2, T=12).
func BenchmarkCombineRun(b *testing.B) {
	p := 233 // f_12 for L=2
	vals := make([]int, p)
	for i := range vals {
		vals[i] = i
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := logpopt.CombineRun(2, 12, vals, func(a, c int) int { return a + c }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummation regenerates the Lemma 5.1 table.
func BenchmarkSummation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.SummationTable()
	}
}

// BenchmarkSummationExecute measures plan construction + execution of a
// 175-operand summation on Figure 6's machine with deadline 40.
func BenchmarkSummationExecute(b *testing.B) {
	m := logpopt.ProfilePaperFig6
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl, err := logpopt.BuildSummation(m, 40)
		if err != nil {
			b.Fatal(err)
		}
		ops := make([]int, pl.N)
		for j := range ops {
			ops[j] = j
		}
		if _, err := logpopt.ExecuteSummation(pl, ops, func(a, c int) int { return a + c }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines regenerates the baseline comparison tables.
func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.SingleItemTable()
		_ = bench.KItemBaselineTable()
		_ = bench.ReduceVsCombineTable()
	}
}

// BenchmarkSimulator measures the discrete-event simulator replaying a
// 256-processor optimal broadcast.
func BenchmarkSimulator(b *testing.B) {
	m := logpopt.MustMachine(256, 6, 2, 4)
	s := logpopt.BroadcastSchedule(m, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, rep := logpopt.SimRun(s, logpopt.SimStrict, logpopt.BroadcastOrigins(0))
		if len(rep.Violations) != 0 {
			b.Fatal(rep.Violations[0])
		}
	}
}

// BenchmarkGoroutineRuntime measures the event-driven runtime
// replaying a 64-processor optimal broadcast.
func BenchmarkGoroutineRuntime(b *testing.B) {
	m := logpopt.MustMachine(64, 6, 2, 4)
	s := logpopt.BroadcastSchedule(m, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt, err := logpopt.NewRuntime(m, logpopt.RTStrict, logpopt.ScheduleHandlers(s))
		if err != nil {
			b.Fatal(err)
		}
		rt.Run(logpopt.RuntimeHorizon(s))
		if vs := rt.Violations(); len(vs) != 0 {
			b.Fatal(vs)
		}
	}
}
