package continuous

import (
	"testing"
)

// Ablation benchmarks for the word-assignment solver's design choices (see
// DESIGN.md): direct backtracking vs the paper's inductive composition, and
// the effect of the letter-preference seed. Run with
// `go test -bench=Ablation ./internal/continuous/`.

// BenchmarkAblationDirectSolve solves L=3, t=13 (P-1=88) by pure
// backtracking (seed 0, no induction), which succeeds within the budget.
func BenchmarkAblationDirectSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst, err := NewInstance(3, 13)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := solveBase(inst, solveOpts{maxNodes: 50_000_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationInductive solves the much larger L=3, t=20 (P-1=1278)
// by the induction: strong base cases from t=2L-2 up, composed horizon by
// horizon; the point of the induction is that this scales linearly while
// direct search explodes.
func BenchmarkAblationInductive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sol := strongFor(3, 20)
		if sol == nil {
			b.Fatal("no strong solution for L=3 t=20")
		}
	}
}

// BenchmarkAblationSeedScarceFirst and ...PlentifulFirst compare the two
// letter-preference orders on the same instance (L=4, t=14).
func BenchmarkAblationSeedScarceFirst(b *testing.B) {
	benchSeed(b, 0)
}

// BenchmarkAblationSeedPlentifulFirst is the opposing letter order.
func BenchmarkAblationSeedPlentifulFirst(b *testing.B) {
	benchSeed(b, 1)
}

func benchSeed(b *testing.B, seed int64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		inst, err := NewInstance(4, 14)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := solveBase(inst, solveOpts{maxNodes: 100_000_000, seed: seed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSumPruningOff measures the strong base solver with the
// sum-target pruning disabled via an over-generous target; comparing with
// BenchmarkAblationStrongSolve shows what the pruning buys. (The pruning
// cannot be switched off without changing semantics, so this benchmark uses
// the plain solver as the no-pruning stand-in on the same instance.)
func BenchmarkAblationStrongSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst, err := NewInstance(4, 14)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := solveBase(inst, solveOpts{maxNodes: 100_000_000, strong: true}); err != nil {
			b.Fatal(err)
		}
	}
}
