// Package logtime builds the universal optimal broadcast tree ß(P) without
// search, in O(log P) time per processor after a small precomputation that
// the query owns — the repository's implementation of the construction idea
// in Träff's "Optimal Broadcast Schedules in Logarithmic Time" (arXiv
// 2407.18004), specialized to the KSSS93 universal optimal broadcast tree.
//
// It is the one builder of ß(P) that production code reaches. Every
// collective built on the tree — broadcast, reduce and scan (combine),
// summation's time-reversed tree on the lazy machine, k-item, continuous
// and the baselines' bound — imports this package and takes its tree, B(P)
// or P(t) from here; logtime itself depends only on core's tree type. The
// heap search core.OptimalTree builds the same tree node for node and is
// kept as the test oracle.
//
// The universal tree of Definition 2.3 is determined entirely by two
// machine constants: d = L + 2o (the parent-to-child delay) and
// stride = max(g, o) (the spacing between a node's successive sends). The
// root has label 0 and a node with label t has children labeled
// t + d + i*stride for i >= 0; ß(P) is the subtree of the P smallest-label
// nodes with ties broken by parent index ("leftmost fill"), and B(P) is its
// largest label (Definition 2.4, Theorem 2.1).
//
// The whole tree can therefore be described by counting rather than built by
// a priority-queue search:
//
//   - Every label is an element of {0} ∪ {a*d + b*stride : a >= 1, b >= 0}.
//     The distinct labels up to B(P) — the "label points" — number far fewer
//     than P (one point can carry exponentially many nodes).
//   - N(τ), the number of universal-tree nodes with label <= τ, obeys
//     N(τ) = 1 + Σ_{i>=0} N(τ - d - i*stride) (Definition 2.2's P(t)). Its
//     group sizes G(τ) = N(τ) - N(τ-1) satisfy a purely local identity:
//     the nodes labeled τ correspond one-to-one, in order, to the earlier
//     nodes q with t_q ≡ τ - d (mod stride) and t_q <= τ - d — node q's
//     child number (τ - d - t_q)/stride. Hence G(τ) = R(τ-d, c), where
//     R(x, c) counts nodes with label <= x in residue class c = (τ-d) mod
//     stride.
//   - Ranks (= node indices of core.OptimalTree, which pops candidates in
//     lexicographic (label, parent index, child index) order) decompose as
//     rank = N(label-1) + position-in-label-group, and the group at label τ
//     is ordered by parent rank. Both directions — rank to parent, rank to
//     children — therefore reduce to O(log P) predecessor searches over the
//     per-class cumulative counts.
//
// A Builder holds the label points with their N, G and class-cumulative R
// values for one machine shape (d, stride); the tables are independent of P
// and grow lazily as larger P are queried. Tables are owned per query: the
// package functions (Tree, B, Node, BroadcastSchedule, Seq) each build a
// private Builder that is garbage once they return, and nothing caches
// builders across calls, so a caller that asks one shape many questions
// holds one Builder itself. On top of it, Node answers
// per-rank queries in O(log P), Tree materializes ß(p) in O(p) — node for
// node identical to core.OptimalTree, which the tests assert — and BTime,
// Count and LabelSum return B(p), P(t) and ß(p)'s label sum without
// building anything.
package logtime

import (
	"container/heap"
	"fmt"
	"sort"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/obs"
	"logpopt/internal/schedule"
)

// mPoints counts the label points the counting tables have admitted
// process-wide, the tables' total build work. Admissions are far fewer than
// tree nodes, so the atomic add is nowhere near a hot path.
var mPoints = obs.Default.Counter("logtime.points.admitted")

// satCap bounds every node count so the exponentially growing N(τ) can never
// overflow int64 arithmetic, mirroring core.Pt's saturation.
const satCap = int64(1) << 62

func satAdd(a, b int64) int64 {
	s := a + b
	if s < a || s > satCap {
		return satCap
	}
	return s
}

// point is one distinct label of the universal tree, with the counting state
// hung off it: n = N(label) (nodes with label <= this, saturating), g = the
// group size N(label) - N(prev point), and r = the cumulative group size
// over this point's residue class label mod stride, up to and including it.
type point struct {
	label logp.Time
	n     int64
	g     int64
	r     int64
}

// labelHeap is the generation frontier: candidate labels not yet admitted.
type labelHeap []logp.Time

func (h labelHeap) Len() int           { return len(h) }
func (h labelHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h labelHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *labelHeap) Push(x any)        { *h = append(*h, x.(logp.Time)) }
func (h *labelHeap) Pop() any          { o := *h; n := len(o); x := o[n-1]; *h = o[:n-1]; return x }
func (h *labelHeap) push(t logp.Time)  { heap.Push(h, t) }
func (h *labelHeap) pop() logp.Time    { return heap.Pop(h).(logp.Time) }

// Builder precomputes the counting structure of the universal optimal
// broadcast tree for one machine shape. Its tables grow lazily and serve
// every P queried on it. A Builder is for one goroutine at a time: queries
// grow the tables, and nothing guards them.
type Builder struct {
	M      logp.Machine
	d      logp.Time // parent-to-child delay L + 2o
	stride logp.Time // send spacing max(g, o)

	pts      []point               // label points, ascending
	classes  map[logp.Time][]int32 // residue class -> indices into pts, ascending
	frontier labelHeap             // pending candidate labels
	pending  map[logp.Time]bool    // dedup for the frontier
}

// NewBuilder validates the machine and returns an empty builder for it.
func NewBuilder(m logp.Machine) (*Builder, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("logtime: %w", err)
	}
	b := &Builder{
		M:       m,
		d:       m.D(),
		stride:  core.SendStride(m),
		classes: make(map[logp.Time][]int32),
		pending: make(map[logp.Time]bool),
	}
	b.admit(0) // the root's label
	return b, nil
}

// MustBuilder is NewBuilder for known-valid machines.
func MustBuilder(m logp.Machine) *Builder {
	b, err := NewBuilder(m)
	if err != nil {
		panic(err)
	}
	return b
}

// admit appends the point for label t (which must exceed every existing
// point), computing its group size from the class tables, and schedules its
// successor labels t+d (first child of a node labeled t) and t+stride (next
// sibling — except from the root, whose children all carry a d component).
func (b *Builder) admit(t logp.Time) {
	var g int64
	if t == 0 {
		g = 1 // the root
	} else {
		g = b.classCount(t-b.d, mod(t-b.d, b.stride))
	}
	n := g
	if len(b.pts) > 0 {
		n = satAdd(b.pts[len(b.pts)-1].n, g)
	}
	c := mod(t, b.stride)
	r := g
	if idxs := b.classes[c]; len(idxs) > 0 {
		r = satAdd(b.pts[idxs[len(idxs)-1]].r, g)
	}
	b.classes[c] = append(b.classes[c], int32(len(b.pts)))
	b.pts = append(b.pts, point{label: t, n: n, g: g, r: r})
	mPoints.Inc()
	b.schedule(t + b.d)
	if t != 0 {
		b.schedule(t + b.stride)
	}
}

func (b *Builder) schedule(t logp.Time) {
	if t <= 0 || b.pending[t] { // t <= 0 only on Time overflow of huge params
		return
	}
	b.pending[t] = true
	b.frontier.push(t)
}

// ensure grows the point tables until the total node count reaches p (or
// saturates), so that every label up to B(p) is materialized.
func (b *Builder) ensure(p int64) {
	for b.pts[len(b.pts)-1].n < p && b.pts[len(b.pts)-1].n < satCap && b.frontier.Len() > 0 {
		b.admit(b.frontier.pop())
	}
}

// mod is the non-negative remainder.
func mod(a, m logp.Time) logp.Time {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// classCount returns R(x, c): the number of universal-tree nodes with label
// <= x in residue class c, from the class-cumulative table.
func (b *Builder) classCount(x logp.Time, c logp.Time) int64 {
	idxs := b.classes[c]
	// Last class point with label <= x.
	lo, hi := 0, len(idxs)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.pts[idxs[mid]].label <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return b.pts[idxs[lo-1]].r
}

// pointAt returns the index of the point with exactly the given label, or -1.
func (b *Builder) pointAt(t logp.Time) int {
	i := sort.Search(len(b.pts), func(i int) bool { return b.pts[i].label >= t })
	if i < len(b.pts) && b.pts[i].label == t {
		return i
	}
	return -1
}

// prevN returns N just below point pi: the node count strictly before its
// label group.
func (b *Builder) prevN(pi int) int64 {
	if pi == 0 {
		return 0
	}
	return b.pts[pi-1].n
}

func (b *Builder) checkP(p int) {
	if p < 1 {
		panic(fmt.Sprintf("logtime: requires P >= 1, got %d", p))
	}
}

// Count returns N(t) — the number of universal-tree nodes with label <= t,
// which is P(t; L,o,g) of Definition 2.2 — saturating at maxCount. A
// maxCount <= 0 selects the default of 1<<40, and one above 1<<62, where the
// tables themselves saturate, counts as 1<<62, so a larger cap never gives a
// smaller answer. It reads the sparse label points, never a per-time table.
func (b *Builder) Count(t logp.Time, maxCount int64) int64 {
	if maxCount <= 0 {
		maxCount = 1 << 40
	}
	maxCount = min(maxCount, satCap)
	if t < 0 {
		return 0
	}
	// Grow until the last point passes t or the count passes maxCount.
	for b.pts[len(b.pts)-1].label <= t && b.pts[len(b.pts)-1].n < maxCount && b.frontier.Len() > 0 {
		if b.frontier[0] > t {
			break
		}
		b.admit(b.frontier.pop())
	}
	i := sort.Search(len(b.pts), func(i int) bool { return b.pts[i].label > t })
	var n int64
	if i > 0 {
		n = b.pts[i-1].n
	}
	return min(n, maxCount)
}

// BTime returns the optimal broadcast time B(p): the label of the p-th
// smallest-label node of the universal tree. BTime(1) = 0. It runs without
// materializing any tree.
func (b *Builder) BTime(p int) logp.Time {
	b.checkP(p)
	b.ensure(int64(p))
	i := sort.Search(len(b.pts), func(i int) bool { return b.pts[i].n >= int64(p) })
	return b.pts[i].label
}

// LabelSum returns the sum of ß(p)'s labels, read off the label groups
// without building the tree. Summation's capacity (Lemma 5.1) is affine in
// it: n(t) = (o+1) + p(t-o) - LabelSum(p) on the lazy machine.
func (b *Builder) LabelSum(p int) logp.Time {
	var sum logp.Time
	left := int64(p)
	for _, pt := range b.edges(p).pts {
		cnt := min(pt.g, left)
		sum += logp.Time(cnt) * pt.label
		left -= cnt
	}
	return sum
}

// NodeInfo describes one node of ß(p) by rank — the node's index in
// core.OptimalTree(m, p), i.e. its position in the lexicographic
// (label, parent rank, child index) order.
type NodeInfo struct {
	Rank     int
	Label    logp.Time // the processor's availability time (its delay)
	Parent   int       // parent rank; -1 for the root
	SendAt   logp.Time // time the parent starts the send feeding this node (0 for the root)
	ChildIdx int       // position among the parent's children (0 for the root)
	Children []int     // child ranks within ß(p), in send order
}

// Node answers a per-rank query against ß(p) in O(log P) plus O(#children):
// the rank's label, its parent rank and child position, and its children's
// ranks, all without materializing the tree. rank must be in [0, p).
func (b *Builder) Node(p, rank int) NodeInfo {
	b.checkP(p)
	if rank < 0 || rank >= p {
		panic(fmt.Sprintf("logtime: rank %d out of range for P=%d", rank, p))
	}
	b.ensure(int64(p))
	info := NodeInfo{Rank: rank, Parent: -1}
	// Label and position within the label group.
	pi := sort.Search(len(b.pts), func(i int) bool { return b.pts[i].n >= int64(rank)+1 })
	t := b.pts[pi].label
	pos := int64(rank) - b.prevN(pi)
	info.Label = t
	if rank > 0 {
		// The group at label t is ordered by parent rank; its pos-th member's
		// parent is the pos-th node (by rank) of residue class c with label
		// <= t - d.
		c := mod(t-b.d, b.stride)
		idxs := b.classes[c]
		lo, hi := 0, len(idxs)
		for lo < hi {
			mid := (lo + hi) / 2
			if b.pts[idxs[mid]].r >= pos+1 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		pj := int(idxs[lo])
		tp := b.pts[pj].label
		j := pos - (b.pts[pj].r - b.pts[pj].g)
		info.Parent = int(b.prevN(pj) + j)
		info.ChildIdx = int((t - tp - b.d) / b.stride)
		info.SendAt = t - b.d
	}
	// Children: the i-th child sits at label t + d + i*stride; its group
	// position there — the count of same-class nodes ranked before this one —
	// is base + pos, constant in i. Membership in ß(p) is monotone in i, so
	// stop at the first child whose rank reaches p.
	base := b.pts[pi].r - b.pts[pi].g
	childPos := base + pos
	for i := 0; ; i++ {
		tc := t + b.d + logp.Time(i)*b.stride
		cj := b.pointAt(tc)
		if cj < 0 {
			break // beyond B(p): every label <= B(p) is materialized
		}
		childRank := b.prevN(cj) + childPos
		if childRank >= int64(p) {
			break
		}
		info.Children = append(info.Children, int(childRank))
	}
	return info
}

// Tree materializes ß(p) in O(p): node for node — indices, parents, child
// order, labels — identical to core.OptimalTree(m, p), but with the heap
// search replaced by the counting tables. Each label group's members are
// matched, in rank order, with the class-c prefix of earlier nodes that
// parent them.
func (b *Builder) Tree(p int) *core.Tree {
	b.checkP(p)
	b.ensure(int64(p))
	t := &core.Tree{M: b.M, Nodes: make([]core.Node, 0, p)}
	t.Nodes = append(t.Nodes, core.Node{Label: 0, Parent: -1})
	// classNodes[c] lists the ranks of built nodes with label ≡ c (mod
	// stride), in rank order. The group at label τ consumes the first G(τ)
	// entries of class (τ-d) mod stride as parents, in order.
	classNodes := make(map[logp.Time][]int32)
	classNodes[mod(0, b.stride)] = append(classNodes[mod(0, b.stride)], 0)
	built := 1
	for pi := 1; built < p && pi < len(b.pts); pi++ {
		pt := b.pts[pi]
		c := mod(pt.label-b.d, b.stride)
		take := pt.g
		if left := int64(p - built); take > left {
			take = left
		}
		parents := classNodes[c]
		first := built
		for j := int64(0); j < take; j++ {
			parent := int(parents[j])
			idx := built
			t.Nodes = append(t.Nodes, core.Node{Label: pt.label, Parent: parent})
			t.Nodes[parent].Children = append(t.Nodes[parent].Children, idx)
			built++
		}
		c2 := mod(pt.label, b.stride)
		for idx := first; idx < built; idx++ {
			classNodes[c2] = append(classNodes[c2], int32(idx))
		}
	}
	return t
}

// Tree builds ß(p) for m on a private builder. It is the one tree builder
// production code uses: every broadcast, reduce, scan, summation, k-item and
// continuous construction takes its tree from here, and core.OptimalTree's
// heap search, which builds the same tree node for node, is kept only as the
// oracle the tests and the conformance differential compare against. The
// machine must be valid (it panics otherwise, like core.OptimalTree).
func Tree(m logp.Machine, p int) *core.Tree {
	return MustBuilder(m).Tree(p)
}

// BroadcastSchedule returns the optimal single-item broadcast schedule for
// the machine: ß(P) expanded with the identity processor assignment, item
// id item, starting at time 0 with the datum at processor 0.
func BroadcastSchedule(m logp.Machine, item int) *schedule.Schedule {
	s, err := core.TreeSchedule(Tree(m, m.P), item, nil, 0)
	if err != nil {
		panic(err) // identity assignment can't mismatch
	}
	return s
}

// B returns the optimal single-item broadcast time B(p; L,o,g) without
// constructing a tree — the search-free equivalent of core.B.
func B(m logp.Machine, p int) logp.Time {
	return MustBuilder(m).BTime(p)
}

// Node answers a per-rank query against ß(p) for m on a private builder.
func Node(m logp.Machine, p, rank int) NodeInfo {
	return MustBuilder(m).Node(p, rank)
}
