package continuous

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"logpopt/internal/par"
)

// solvedShape captures everything Solve decides: the block words (in block
// order) and the receive-only delay.
func solvedShape(inst *Instance) string {
	s := fmt.Sprintf("recv=%d", inst.RecvOnlyDelay)
	for _, b := range inst.Blocks {
		s += fmt.Sprintf(" (%d,%d)%v", b.Size, b.Delay, b.Word)
	}
	return s
}

func solveShape(t *testing.T, l, horizon int) string {
	t.Helper()
	inst, err := NewInstance(l, horizon)
	if err != nil {
		t.Fatalf("NewInstance(%d,%d): %v", l, horizon, err)
	}
	switch err := inst.Solve(0); {
	case err == nil:
		return solvedShape(inst)
	case errors.Is(err, ErrNoSolution):
		return "infeasible" // a deterministic outcome too
	default:
		t.Fatalf("Solve(%d,%d): %v", l, horizon, err)
		return ""
	}
}

// TestSolveDeterministicAcrossParallelism checks the portfolio contract: the
// solver must return the exact same solution whatever the worker-pool width,
// for every base-case instance 3 <= L <= 10 (and a couple of larger horizons
// that exercise the inductive composition).
func TestSolveDeterministicAcrossParallelism(t *testing.T) {
	type inst struct{ l, t int }
	var cases []inst
	for l := 3; l <= 10; l++ {
		for horizon := l; horizon <= 2*l; horizon++ {
			cases = append(cases, inst{l, horizon})
		}
	}
	oldLimit := par.Limit()
	defer par.SetLimit(oldLimit)

	want := make(map[inst]string)
	par.SetLimit(1)
	for _, c := range cases {
		want[c] = solveShape(t, c.l, c.t)
	}
	for _, lim := range []int{2, 8} {
		par.SetLimit(lim)
		for _, c := range cases {
			if got := solveShape(t, c.l, c.t); got != want[c] {
				t.Errorf("L=%d t=%d: limit %d solved %s; sequential solved %s",
					c.l, c.t, lim, got, want[c])
			}
		}
	}
}

// TestSolveConcurrentSameKey: many goroutines solve fresh Instance values
// for the same (L, t) keys at once. Run under -race this validates that
// concurrent solves share no state; the assertions validate that every
// goroutine observes the same solution.
func TestSolveConcurrentSameKey(t *testing.T) {
	type inst struct{ l, t int }
	keys := []inst{{3, 8}, {3, 9}, {4, 10}, {5, 12}}
	const goroutines = 8
	results := make([]map[inst]string, goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(keys))
	for g := 0; g < goroutines; g++ {
		g := g
		results[g] = make(map[inst]string)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range keys {
				in, err := NewInstance(k.l, k.t)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d NewInstance(%d,%d): %v", g, k.l, k.t, err)
					return
				}
				if err := in.Solve(0); err != nil {
					errs <- fmt.Errorf("goroutine %d Solve(%d,%d): %v", g, k.l, k.t, err)
					return
				}
				results[g][k] = solvedShape(in)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := 1; g < goroutines; g++ {
		for _, k := range keys {
			if results[g][k] != results[0][k] {
				t.Errorf("goroutine %d solved (%d,%d) as %s; goroutine 0 as %s",
					g, k.l, k.t, results[g][k], results[0][k])
			}
		}
	}
}

// BenchmarkSolverPortfolio measures a base-case sweep (3 <= L <= 10,
// L <= t <= 2L); every solve searches afresh. Search-effort counters are
// reported per op so regressions in pruning show up alongside wall time.
func BenchmarkSolverPortfolio(b *testing.B) {
	nodes0 := mSearchNodes.Value()
	prunes0 := mSearchPrunes.Value()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for l := 3; l <= 10; l++ {
			for horizon := l; horizon <= 2*l; horizon++ {
				inst, err := NewInstance(l, horizon)
				if err != nil {
					b.Fatal(err)
				}
				if err := inst.Solve(0); err != nil && !errors.Is(err, ErrNoSolution) {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(mSearchNodes.Value()-nodes0)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(mSearchPrunes.Value()-prunes0)/float64(b.N), "prunes/op")
}

// TestSolveInfeasibleConcurrent checks that ErrNoSolution (an exhaustive
// infeasibility proof, which aborts the whole portfolio) is reported
// consistently under concurrency. L=2, t=8 is the paper's Theorem 3.4
// infeasible point.
func TestSolveInfeasibleConcurrent(t *testing.T) {
	const goroutines = 6
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			in, err := NewInstance(2, 8)
			if err != nil {
				errs[g] = fmt.Errorf("NewInstance: %v", err)
				return
			}
			errs[g] = in.Solve(0)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if !errors.Is(err, ErrNoSolution) {
			t.Errorf("goroutine %d: err = %v, want ErrNoSolution", g, err)
		}
	}
}
