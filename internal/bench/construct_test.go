package bench

import (
	"fmt"
	"strings"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
)

// The Construct benchmarks are the BENCH_3.json record of the tentpole
// claim: schedule construction through the logtime counting tables is
// orders of magnitude cheaper than any search. Three tiers:
//
//   - ConstructLogtimeTables: cold start — build the counting tables from
//     nothing until P processors are covered. After this, every per-rank
//     query is answerable; this is the whole construction cost of the
//     closed form.
//   - ConstructLogtimeNode: one per-processor O(log P) query against warm
//     tables (the steady-state cost of emitting one processor's entry).
//   - ConstructLogtimeTree / ConstructSearchTree: full materialization of
//     ß(P), closed-form vs heap search, for a like-for-like contrast.

var constructPs = []int{64, 1000, 100000, 1000000}

var sinkTime logp.Time

func BenchmarkConstructLogtimeTables(b *testing.B) {
	for _, p := range constructPs {
		m := logp.ProfilePaperFig1.WithP(p)
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bl, err := logtime.NewBuilder(m)
				if err != nil {
					b.Fatal(err)
				}
				sinkTime = bl.BTime(p)
			}
		})
	}
}

func BenchmarkConstructLogtimeNode(b *testing.B) {
	for _, p := range constructPs {
		m := logp.ProfilePaperFig1.WithP(p)
		bl := logtime.MustBuilder(m)
		bl.BTime(p) // warm the tables once; the query cost is what's measured
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			r := p - 1
			for i := 0; i < b.N; i++ {
				ni := bl.Node(p, r)
				sinkTime = ni.Label
				r = (r*48271 + 7) % p
			}
		})
	}
}

func BenchmarkConstructLogtimeTree(b *testing.B) {
	for _, p := range constructPs {
		if p > 100000 {
			continue // materializing 1e6 nodes measures allocation, not construction
		}
		m := logp.ProfilePaperFig1.WithP(p)
		bl := logtime.MustBuilder(m)
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkTime = bl.Tree(p).MaxLabel()
			}
		})
	}
}

func BenchmarkConstructSearchTree(b *testing.B) {
	for _, p := range constructPs {
		if p > 100000 {
			continue
		}
		m := logp.ProfilePaperFig1.WithP(p)
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkTime = core.OptimalTree(m, p).MaxLabel()
			}
		})
	}
}

// TestConstructionTableStable pins that the CTOR experiment is
// byte-reproducible, so it can join the -all output without breaking
// determinism guarantees.
func TestConstructionTableStable(t *testing.T) {
	first := ConstructionTable().String()
	if got := ConstructionTable().String(); got != first {
		t.Fatalf("construction table changes between runs:\n%s\nthen\n%s", first, got)
	}
	if strings.Contains(first, "DIVERGE") {
		t.Fatalf("constructors diverge:\n%s", first)
	}
}
