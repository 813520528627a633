package core

import (
	"fmt"
	"strings"

	"logpopt/internal/logp"
)

// Node is one node of a broadcast tree. Label is the node's delay: the time
// at which the datum first becomes available at the corresponding processor
// (Definition 2.1). Children are ordered: the i-th child receives the i-th
// message sent by this node.
type Node struct {
	Label    logp.Time
	Parent   int // index of the parent node, -1 for the root
	Children []int
}

// Tree is a rooted, ordered, labeled broadcast tree over nodes indexed
// 0..len(Nodes)-1, with node 0 the root (the broadcast source). It is the
// concrete form of the broadcast trees of Section 2 of the paper.
type Tree struct {
	M     logp.Machine
	Nodes []Node
}

// TreeBuilder constructs the optimal broadcast tree ß(p) for a machine.
// Production code passes internal/logtime's builder; tests pass the heap
// search OptimalTree, which must produce the identical tree node for node.
// Only sched.Compile and summation.BuildWith take one: summation's tree
// size depends on its deadline. Every other expander takes the tree.
type TreeBuilder func(m logp.Machine, p int) *Tree

// P returns the number of nodes (processors participating in the broadcast).
func (t *Tree) P() int { return len(t.Nodes) }

// MaxLabel returns the largest delay in the tree: the broadcast's running
// time t_A = max_i t_A(i).
func (t *Tree) MaxLabel() logp.Time {
	var mx logp.Time
	for _, n := range t.Nodes {
		if n.Label > mx {
			mx = n.Label
		}
	}
	return mx
}

// SumLabels returns the sum of all delays; the universal-tree greedy
// minimizes this quantity, which is what makes time-reversed broadcast an
// optimal summation pattern (Section 5).
func (t *Tree) SumLabels() logp.Time {
	var s logp.Time
	for _, n := range t.Nodes {
		s += n.Label
	}
	return s
}

// Leaves returns the indices of all leaf nodes.
func (t *Tree) Leaves() []int {
	var out []int
	for i, n := range t.Nodes {
		if len(n.Children) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Internal returns the indices of all internal (sending) nodes.
func (t *Tree) Internal() []int {
	var out []int
	for i, n := range t.Nodes {
		if len(n.Children) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// SendTime returns the time at which node parent starts the transmission to
// its i-th child: label(parent) + i*stride. The message occupies the sender
// for o cycles, spends L in flight, and the child's label is
// sendTime + L + 2o.
func (t *Tree) SendTime(parent, i int) logp.Time {
	return t.Nodes[parent].Label + logp.Time(i)*SendStride(t.M)
}

// Validate checks the structural and labeling invariants of a broadcast
// tree on machine t.M:
//
//   - node 0 is the root with Parent == -1 and Label 0;
//   - every other node's Parent is a valid earlier-or-other node that lists
//     it as a child exactly once;
//   - child labels equal parent label + i*stride + L + 2o for the child's
//     position i (the LogP timing rule for an "eager" tree), or exceed it
//     (for deliberately slackened trees, with strict=false);
//   - sibling labels are non-decreasing.
//
// With strict=true labels must be exactly the eager values (universal-tree
// shape); with strict=false they may be larger but never smaller than
// feasible.
func (t *Tree) Validate(strict bool) error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("core: tree has no nodes")
	}
	if t.Nodes[0].Parent != -1 {
		return fmt.Errorf("core: node 0 must be the root (parent -1, got %d)", t.Nodes[0].Parent)
	}
	if t.Nodes[0].Label != 0 {
		return fmt.Errorf("core: root label must be 0, got %d", t.Nodes[0].Label)
	}
	d := t.M.D()
	stride := SendStride(t.M)
	seen := make([]bool, len(t.Nodes))
	seen[0] = true
	for pi, n := range t.Nodes {
		var prev logp.Time = -1
		for i, ci := range n.Children {
			if ci <= 0 || ci >= len(t.Nodes) {
				return fmt.Errorf("core: node %d child %d out of range", pi, ci)
			}
			c := t.Nodes[ci]
			if c.Parent != pi {
				return fmt.Errorf("core: node %d lists child %d whose parent is %d", pi, ci, c.Parent)
			}
			if seen[ci] {
				return fmt.Errorf("core: node %d appears as a child twice", ci)
			}
			seen[ci] = true
			eager := n.Label + logp.Time(i)*stride + d
			if strict && c.Label != eager {
				return fmt.Errorf("core: node %d label %d, want eager label %d", ci, c.Label, eager)
			}
			if !strict && c.Label < eager {
				return fmt.Errorf("core: node %d label %d is infeasible (< %d)", ci, c.Label, eager)
			}
			if c.Label < prev {
				return fmt.Errorf("core: node %d sibling labels decrease at child %d", pi, ci)
			}
			prev = c.Label
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("core: node %d unreachable from root", i)
		}
	}
	return nil
}

// DelayHistogram returns, for each distinct label, the number of nodes with
// that label, as a map. For a complete optimal tree (P = P(t)) in the postal
// model this is the node-count sequence c(d) that drives the continuous
// broadcast construction of Section 3.2.
func (t *Tree) DelayHistogram() map[logp.Time]int {
	h := make(map[logp.Time]int)
	for _, n := range t.Nodes {
		h[n.Label]++
	}
	return h
}

// String renders the tree as an indented outline with labels, suitable for
// reproducing the tree drawings in Figures 1, 2 and 6 of the paper.
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(i, depth int)
	rec = func(i, depth int) {
		fmt.Fprintf(&b, "%s%d @%d\n", strings.Repeat("  ", depth), i, t.Nodes[i].Label)
		for _, c := range t.Nodes[i].Children {
			rec(c, depth+1)
		}
	}
	rec(0, 0)
	return b.String()
}

// DOT renders the tree in GraphViz format; node labels show the processor
// index and availability time.
func (t *Tree) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=circle];\n", name)
	for i, n := range t.Nodes {
		fmt.Fprintf(&b, "  n%d [label=\"P%d@%d\"];\n", i, i, n.Label)
	}
	for i, n := range t.Nodes {
		for _, c := range n.Children {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", i, c)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
