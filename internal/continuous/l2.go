package continuous

import (
	"fmt"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
)

// This file implements Theorem 3.5: for L = 2, a continuous-broadcast delay
// of L + B(P-1) + 1 is achievable whenever P-1 = P(t), even though the
// optimal delay L + B(P-1) is not (Theorem 3.4, reproduced exhaustively in
// the tests). The construction prunes the optimal tree for P(t+1) processors
// down to P(t) nodes — removing both leaves from some nodes with many
// children and the deeper leaf from some of the others, exactly as the
// paper's proof sketch describes — and then runs the ordinary block-cyclic
// word solver on the pruned (slack) tree. Every item is broadcast along the
// pruned tree, whose depth is t+1, giving delay 2 + t + 1.

// SolveL2 builds and solves a delay-(t+3) continuous broadcast instance for
// L = 2 and P-1 = P(t) = f_t processors, t >= 2. The returned instance's
// Delay() is t+3 = L + B(P-1) + 1.
func SolveL2(t int) (*Instance, error) {
	const l = 2
	if t < 2 {
		return nil, fmt.Errorf("continuous: SolveL2 requires t >= 2")
	}
	seq := core.NewSeq(l)
	want := int(seq.F(t))    // nodes to keep
	big := int(seq.F(t + 1)) // nodes of the horizon-(t+1) optimal tree
	remove := big - want     // = f_{t-1}
	full := logtime.Tree(logp.Postal(big, l), big)
	if int(full.MaxLabel()) != t+1 {
		return nil, fmt.Errorf("continuous: horizon tree has depth %d, want %d", full.MaxLabel(), t+1)
	}
	// Classify internal nodes by child count. In the horizon-(t+1) tree a
	// node at delay d has t-d children; its last two children (delays t and
	// t+1) are leaves (one leaf, at t+1, if it has a single child).
	var with1, with2, with3, withMore []int
	for ni, nd := range full.Nodes {
		switch len(nd.Children) {
		case 0:
		case 1:
			with1 = append(with1, ni)
		case 2:
			with2 = append(with2, ni)
		case 3:
			with3 = append(with3, ni)
		default:
			withMore = append(withMore, ni)
		}
	}
	// The paper prunes both leaves from all nodes with >= 4 children, both
	// leaves from a fraction of the 3-child nodes, and the deeper leaf from
	// fractions of the 1- and 2-child nodes. Enumerate those fractions.
	mandatory := 2 * len(withMore)
	if mandatory > remove {
		return nil, fmt.Errorf("continuous: pruning arithmetic broken at t=%d", t)
	}
	rest := remove - mandatory
	for b := 0; b <= len(with3) && 2*b <= rest; b++ {
		for c2 := 0; c2 <= len(with2) && 2*b+c2 <= rest; c2++ {
			c1 := rest - 2*b - c2
			if c1 > len(with1) {
				continue
			}
			inst, err := buildPrunedL2(full, with1, with2, with3, withMore, b, c2, c1, t)
			if err != nil {
				continue
			}
			if err := inst.Solve(400_000); err == nil {
				return inst, nil
			}
		}
	}
	return nil, fmt.Errorf("continuous: no Theorem 3.5 pruning found for t=%d", t)
}

// buildPrunedL2 removes, from a copy of the horizon-(t+1) tree: both leaf
// children of every node in withMore and of the first b nodes of with3, and
// the deeper leaf child of the first c2 nodes of with2 and first c1 nodes of
// with1. It reindexes the surviving nodes and assembles the instance.
func buildPrunedL2(full *core.Tree, with1, with2, with3, withMore []int, b, c2, c1, t int) (*Instance, error) {
	drop := make(map[int]bool)
	dropLast := func(ni, n int) {
		ch := full.Nodes[ni].Children
		for i := len(ch) - n; i < len(ch); i++ {
			drop[ch[i]] = true
		}
	}
	for _, ni := range withMore {
		dropLast(ni, 2)
	}
	for i := 0; i < b; i++ {
		dropLast(with3[i], 2)
	}
	for i := 0; i < c2; i++ {
		dropLast(with2[i], 1)
	}
	for i := 0; i < c1; i++ {
		dropLast(with1[i], 1)
	}
	// Reindex survivors.
	newIdx := make([]int, full.P())
	for i := range newIdx {
		newIdx[i] = -1
	}
	pruned := &core.Tree{M: full.M}
	for ni, nd := range full.Nodes {
		if drop[ni] {
			continue
		}
		newIdx[ni] = len(pruned.Nodes)
		parent := -1
		if nd.Parent >= 0 {
			parent = newIdx[nd.Parent]
		}
		pruned.Nodes = append(pruned.Nodes, core.Node{Label: nd.Label, Parent: parent})
	}
	for ni, nd := range full.Nodes {
		if drop[ni] || nd.Parent < 0 {
			continue
		}
		p := newIdx[nd.Parent]
		pruned.Nodes[p].Children = append(pruned.Nodes[p].Children, newIdx[ni])
	}
	return newFromTree(2, t+1, pruned)
}
