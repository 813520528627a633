package sched

import (
	"testing"

	"logpopt/internal/baseline"
	"logpopt/internal/conform"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs"
	"logpopt/internal/schedule"
)

// TestBaselineBoundIsTreeHeight: the broadcast baselines report the optimal
// tree's height as their bound without building the tree; it must be what
// either tree builder's tree says.
func TestBaselineBoundIsTreeHeight(t *testing.T) {
	builders := map[string]core.TreeBuilder{"logtime": logtime.Tree, "search": core.OptimalTree}
	for _, mc := range conform.ConstructorMachines() {
		m := mc.M
		for name, tb := range builders {
			want := tb(m, m.P).MaxLabel()
			for _, op := range []string{"linear", "flat", "binary", "binomial"} {
				c, err := Compile(m, op, 1, 0, tb)
				if err != nil {
					t.Fatalf("%s on %v: %v", op, m, err)
				}
				if c.Bound != want || !c.Baseline {
					t.Errorf("%s on %v: bound %d baseline %v, want %s tree height %d", op, m, c.Bound, c.Baseline, name, want)
				}
			}
		}
	}
}

// TestSolveBuildsTablesOnce: answering and encoding a tree-walk key admits
// the label points of one builder grown to P, because the walk's builder
// also gives the bound B(P). Binomial walks the stretched machine, so it
// adds exactly one builder on m for its bound.
func TestSolveBuildsTablesOnce(t *testing.T) {
	admitted := obs.Default.Counter("logtime.points.admitted")
	points := func(f func()) int64 {
		before := admitted.Value()
		f()
		return admitted.Value() - before
	}
	for _, p := range []int{1000, 100000} {
		m := logp.MustNew(p, 6, 2, 4)
		one := points(func() { logtime.B(m, p) })
		stretched := points(func() { logtime.B(baseline.BinomialMachine(m), p) })
		for _, op := range []string{"broadcast", "reduce", "scan", "binomial"} {
			k, err := Canonicalize(Request{Op: op, P: p, L: m.L, O: m.O, G: m.G}, "")
			if err != nil {
				t.Fatal(err)
			}
			got := points(func() {
				a, err := Solve(k)
				if err != nil {
					t.Fatal(err)
				}
				schedule.AppendSeqJSON(nil, a.M, a.Seq)
			})
			want := one
			if op == "binomial" {
				want += stretched
			}
			if got != want {
				t.Errorf("%s P=%d: Solve and one encode admitted %d label points, want %d", op, p, got, want)
			}
		}
	}
}
