package bench

import (
	"reflect"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
)

// ConstructionTable is experiment CTOR: for each processor count it builds
// the optimal broadcast tree with both constructors, proves them identical
// node for node, and reports B(P) plus the per-rank answers the logtime
// side can give without materializing anything. Wall times deliberately
// stay out of the table (it must be byte-reproducible); the ns/op numbers
// live in the Construct benchmarks recorded in BENCH_3.json.
func ConstructionTable() *Table {
	m0 := logp.ProfilePaperFig1 // L=6 o=2 g=4
	tb := &Table{
		Title:  "Construction: heap search vs logtime counting (L=6 o=2 g=4)",
		Header: []string{"P", "B(P)", "trees", "rank P-1 label", "rank P-1 parent", "rank P/2 label"},
	}
	for _, p := range []int{8, 64, 1000, 100000} {
		m := m0.WithP(p)
		search := core.OptimalTree(m, p)
		lt := logtime.Tree(m, p)
		agree := reflect.DeepEqual(search.Nodes, lt.Nodes)
		last := logtime.Node(m, p, p-1)
		mid := logtime.Node(m, p, p/2)
		tb.Add(p, lt.MaxLabel(), okMark(agree), last.Label, last.Parent, mid.Label)
	}
	// Past any materializable size the closed form keeps answering: the
	// per-rank queries below never build a tree.
	huge := m0.WithP(1 << 30)
	n := logtime.Node(huge, 1<<30, 1<<29)
	tb.Note("per-rank queries stay O(log P): rank 2^29 of P=2^30 has label %d, parent %d (no tree built)",
		n.Label, n.Parent)
	tb.Note("B(P) per constructor ns/op: see the Construct benchmarks in BENCH_3.json")
	return tb
}

func okMark(b bool) string {
	if b {
		return "identical"
	}
	return "DIVERGE"
}
