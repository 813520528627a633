// Package summation implements Section 5 of the paper: optimal summation of
// n operands on a LogP machine, where "addition" is any associative binary
// operation costing one cycle.
//
// The key structural result is that the communication pattern of an optimal
// summation algorithm is the time reversal of an optimal single-item
// broadcast pattern for a machine with latency L+1: a processor assigned to
// a broadcast-tree node with delay d sends its (single) partial-sum message
// at time t-d. Between its obligations, every processor greedily folds local
// input operands into its accumulator, one per free cycle ("lazy"
// schedules). Lemma 5.1 then gives the capacity
//
//	n(t) = (o+1) + sum over nodes (t - d_i - o),
//
// maximized precisely when the sum of tree labels is minimized — i.e. by the
// universal optimal broadcast tree of Section 2.
//
// Timing per reception: a message sent at S_c arrives at S_c+o+L, occupies
// the receiver for o cycles, and is folded into the accumulator by one
// further add cycle, completing at S_c+2o+L+1. With child labels
// d_c = d_p + (L+1) + 2o + i*stride this lands exactly at S_p - i*stride, so
// the i-th-from-last reception is folded just in time for the parent's own
// send at S_p (and the chain of g-o-1 local adds between receptions matches
// the paper's Figure 6).
//
// The construction requires g >= o+1 (the paper's implicit assumption: the
// reception-plus-add busy period o+1 must fit in one gap window).
//
// The tree is the lazy machine's ß(p) from internal/logtime. Capacity,
// TimeFor and Node read logtime's counting tables and build no tree; Build
// materializes ß(p) with logtime.Tree.
package summation

import (
	"fmt"
	"math"
	"math/bits"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/schedule"
)

// Lazy returns the (L+1, o, g) machine whose broadcast trees correspond to
// lazy summation schedules on m.
func Lazy(m logp.Machine) logp.Machine {
	return logp.Machine{P: m.P, L: m.L + 1, O: m.O, G: m.G}
}

// Validate reports whether summation schedules can be built for m.
func Validate(m logp.Machine) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.G < m.O+1 {
		return fmt.Errorf("summation: requires g >= o+1 (got g=%d, o=%d)", m.G, m.O)
	}
	return nil
}

// Capacity returns n(t): the maximum number of operands a P-processor LogP
// machine can sum in t cycles (Lemma 5.1). The plan admits the lazy
// machine's universal-tree nodes whose marginal contribution t - d - o is
// positive, up to m.P of them, so n(t) = (o+1) + p(t-o) - (sum of ß(p)'s
// labels), read off the counting tables in O(label points) time and space:
// no tree is built and nothing is indexed by time. For t < 0 capacity is 0.
func Capacity(m logp.Machine, t logp.Time) int64 {
	if err := Validate(m); err != nil {
		panic(err)
	}
	if t < 0 {
		return 0
	}
	b := logtime.MustBuilder(Lazy(m))
	n, ok := capacity(b, t, size(b, t))
	if !ok {
		panic(fmt.Sprintf("summation: n(%d) on %v overflows int64", t, m))
	}
	return n
}

// size returns the number of processors the plan for deadline t uses: the
// lazy machine's universal-tree nodes with label <= t-o-1, at most P, and at
// least the root, which always works (for t <= o it folds t+1 operands
// locally). b is a builder for Lazy(m), which keeps m's P and o.
func size(b *logtime.Builder, t logp.Time) int {
	return int(max(1, b.Count(t-b.M.O-1, int64(b.M.P))))
}

// capacity is Lemma 5.1's n(t) for the p-node plan on b, a builder for
// Lazy(m): (o+1) plus each node's t - label - o. ok is false when
// (o+1) + p(t-o) does not fit in int64.
func capacity(b *logtime.Builder, t logp.Time, p int) (n int64, ok bool) {
	o := b.M.O
	if t <= o {
		return int64(t) + 1, true // the root alone (p = 1), folding one operand per cycle
	}
	hi, lo := bits.Mul64(uint64(p), uint64(t-o))
	if hi != 0 || lo > math.MaxInt64-uint64(o)-1 {
		return 0, false
	}
	return int64(o) + 1 + int64(lo) - int64(b.LabelSum(p)), true
}

// TimeFor returns the minimum t such that Capacity(m, t) >= n (the optimal
// summation time for n operands), found by binary search; n >= 1. A probe
// whose capacity overflows int64 exceeds every n, so TimeFor answers for
// every int64 n.
func TimeFor(m logp.Machine, n int64) logp.Time {
	if err := Validate(m); err != nil {
		panic(err)
	}
	if n < 1 {
		panic(fmt.Sprintf("summation: TimeFor requires n >= 1, got %d", n))
	}
	b := logtime.MustBuilder(Lazy(m))
	lo, hi := logp.Time(0), logp.Time(n-1) // one processor alone sums n in n-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if c, ok := capacity(b, mid, size(b, mid)); !ok || c >= n {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// NodeInfo describes one processor's role in the optimal summation plan for
// deadline t, answerable per rank in O(log P) without building the plan:
// when it sends its partial sum, to whom, which children's partial sums it
// folds (child i's fold completes at SendAt - i*stride), and how many local
// operands it folds in its remaining cycles.
type NodeInfo struct {
	Rank   int
	SendAt logp.Time   // partial-sum send time T - label (fictitious for the root: T)
	Parent int         // parent rank; -1 for the root
	Arrive []logp.Time // per child (in tree child order): message arrival time
	Folds  []int       // per child: the child's rank
	Locals int64       // local operands folded (including the free first operand)
}

// Node answers the per-rank summation query for deadline t. The plan it
// describes is exactly Build's: rank r of the lazy machine's ß(p), where p
// is the admitted node count for deadline t.
func Node(m logp.Machine, t logp.Time, rank int) NodeInfo {
	if err := Validate(m); err != nil {
		panic(err)
	}
	if t < 0 {
		panic(fmt.Sprintf("summation: negative deadline %d", t))
	}
	lm := Lazy(m)
	b := logtime.MustBuilder(lm)
	ni := b.Node(size(b, t), rank)
	sn := NodeInfo{Rank: rank, SendAt: t - ni.Label, Parent: ni.Parent}
	stride := core.SendStride(lm)
	busy := int64(0)
	for i, c := range ni.Children {
		sn.Arrive = append(sn.Arrive, sn.SendAt-logp.Time(i)*stride-m.O-1)
		sn.Folds = append(sn.Folds, c)
		busy += int64(m.O) + 1
	}
	// Local adds fill every cycle of [0, SendAt) outside the disjoint
	// reception windows (stride >= o+1 keeps them disjoint and above 0).
	sn.Locals = 1 + int64(sn.SendAt) - busy
	return sn
}

// OpKind distinguishes the two accumulator operations of a processor.
type OpKind int

// Accumulator operations.
const (
	// OpLocal folds the processor's next local input operand.
	OpLocal OpKind = iota
	// OpRecvFold folds a partial sum received from a child processor.
	OpRecvFold
)

// FoldOp is one accumulator update in a processor's timeline. For OpLocal,
// At is the cycle during which the unit-time add runs ([At, At+1)). For
// OpRecvFold, the message arrives at At, reception overhead runs [At, At+o)
// and the fold add runs [At+o, At+o+1); Child is the tree node whose partial
// sum arrives.
type FoldOp struct {
	Kind  OpKind
	At    logp.Time
	Child int
}

// Plan is a complete optimal summation schedule.
type Plan struct {
	M      logp.Machine
	T      logp.Time  // deadline: the total is in the root's accumulator at T
	Tree   *core.Tree // broadcast tree on Lazy(m); node i -> processor i
	N      int64      // total operands summed
	SendAt []logp.Time
	Locals []int64    // local operand count per node (including the free first operand)
	Ops    [][]FoldOp // time-ordered accumulator updates per node
}

// Build constructs the optimal summation plan for deadline t on the lazy
// machine's ß(p), materialized by the same logtime builder that sizes the
// plan, so the tables are built once.
func Build(m logp.Machine, t logp.Time) (*Plan, error) {
	return build(m, t, (*logtime.Builder).Tree)
}

// BuildWith is Build with the tree builder passed in: tb(Lazy(m), p) must
// return ß(p) as logtime.Tree does. The tree's size depends on t, so the
// builder, not a prebuilt tree, is the parameter. The tests and the
// conformance differential pass core.OptimalTree; the plan's operand count
// is checked against the closed-form Capacity either way. A deadline whose
// n(t) does not fit in int64 is an error, not Capacity's panic.
func BuildWith(m logp.Machine, t logp.Time, tb core.TreeBuilder) (*Plan, error) {
	return build(m, t, func(b *logtime.Builder, p int) *core.Tree { return tb(b.M, p) })
}

// build is Build and BuildWith: tree(b, p) returns ß(p) for b's machine,
// Lazy(m), where b is the builder that sized the plan.
func build(m logp.Machine, t logp.Time, tree func(b *logtime.Builder, p int) *core.Tree) (*Plan, error) {
	if err := Validate(m); err != nil {
		return nil, err
	}
	if t < 0 {
		return nil, fmt.Errorf("summation: negative deadline %d", t)
	}
	b := logtime.MustBuilder(Lazy(m))
	p := size(b, t)
	n, ok := capacity(b, t, p)
	if !ok {
		return nil, fmt.Errorf("summation: n(%d) on %v overflows int64", t, m)
	}
	tr := tree(b, p)
	pl := &Plan{M: m, T: t, Tree: tr, N: n}
	pl.SendAt = make([]logp.Time, tr.P())
	pl.Locals = make([]int64, tr.P())
	pl.Ops = make([][]FoldOp, tr.P())
	stride := core.SendStride(Lazy(m))
	for ni, nd := range tr.Nodes {
		sp := t - nd.Label
		pl.SendAt[ni] = sp // root's send is fictitious (at T)
		// Receptions: the i-th child (0-based, in child order) has label
		// nd.Label + (L+1) + 2o + i*stride and sends at t - that; its fold
		// completes at sp - i*stride. Arrival = sendTime + o + L =
		// sp - i*stride - o - 1.
		busy := make(map[logp.Time]bool) // cycles occupied by recv overhead + fold adds
		var ops []FoldOp
		for i, ci := range nd.Children {
			arrive := sp - logp.Time(i)*stride - m.O - 1
			ops = append(ops, FoldOp{Kind: OpRecvFold, At: arrive, Child: ci})
			for c := arrive; c < arrive+m.O+1; c++ {
				busy[c] = true
			}
		}
		// Local adds fill every remaining cycle of [0, sp).
		locals := int64(1) // the first operand is loaded free at time 0
		for c := logp.Time(0); c < sp; c++ {
			if !busy[c] {
				ops = append(ops, FoldOp{Kind: OpLocal, At: c})
				locals++
			}
		}
		sortOps(ops)
		pl.Ops[ni] = ops
		pl.Locals[ni] = locals
	}
	// Cross-check Lemma 5.1 against the constructed plan.
	var total int64
	for _, l := range pl.Locals {
		total += l
	}
	if total != n {
		return nil, fmt.Errorf("summation: plan sums %d operands, capacity says %d", total, n)
	}
	return pl, nil
}

func sortOps(ops []FoldOp) {
	// Insertion sort by At (k and locals are nearly sorted already).
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j].At < ops[j-1].At; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
}

// Schedule expands the plan into a schedule.Schedule with send, recv and
// compute events, suitable for the independent LogP validator. Compute
// events carry tag 0 for local adds and 1 for receive-folds.
func (pl *Plan) Schedule() *schedule.Schedule {
	s := &schedule.Schedule{M: pl.M}
	for ni, nd := range pl.Tree.Nodes {
		if nd.Parent >= 0 {
			s.Send(ni, pl.SendAt[ni], ni, nd.Parent)
		}
		for _, op := range pl.Ops[ni] {
			switch op.Kind {
			case OpLocal:
				s.Compute(ni, op.At, 1, 0)
			case OpRecvFold:
				s.Recv(ni, op.At, op.Child, op.Child)
				s.Compute(ni, op.At+pl.M.O, 1, 1)
			}
		}
	}
	return s
}

// OperandOrder returns the global in-order numbering of operands: the
// sequence in which the n operands appear as leaves of the induced binary
// addition tree. Feeding operands in this order makes the schedule compute
// the exact left-to-right product even for a non-commutative operation
// (the paper's footnote 2: renumber the operands). The result maps each
// node to the (start, count) range it consumes... more precisely it returns
// order[node] = the list of global operand indices that node folds locally,
// in its fold order.
func (pl *Plan) OperandOrder() [][]int64 {
	order := make([][]int64, pl.Tree.P())
	var next int64
	var rec func(ni int)
	rec = func(ni int) {
		// The node's own sequence: first operand, then its ops in time
		// order; a recv-fold splices the entire child's sequence after the
		// accumulator's current coverage.
		order[ni] = append(order[ni], next)
		next++
		for _, op := range pl.Ops[ni] {
			switch op.Kind {
			case OpLocal:
				order[ni] = append(order[ni], next)
				next++
			case OpRecvFold:
				rec(op.Child)
			}
		}
	}
	rec(0)
	return order
}

// Execute runs the plan with concrete operands and a binary operation,
// returning the root's final value. len(operands) must equal pl.N. Operands
// are distributed according to OperandOrder, so for associative op the
// result equals the sequential left fold of a permutation of the input — and
// with OperandOrder the permutation is the in-order one, i.e. the result is
// exactly operands[0] op operands[1] op ... even for non-commutative op.
func Execute[V any](pl *Plan, operands []V, op func(V, V) V) (V, error) {
	var zero V
	if int64(len(operands)) != pl.N {
		return zero, fmt.Errorf("summation: %d operands for plan capacity %d", len(operands), pl.N)
	}
	order := pl.OperandOrder()
	var eval func(ni int) V
	eval = func(ni int) V {
		idx := order[ni]
		acc := operands[idx[0]]
		pos := 1
		for _, o := range pl.Ops[ni] {
			switch o.Kind {
			case OpLocal:
				acc = op(acc, operands[idx[pos]])
				pos++
			case OpRecvFold:
				acc = op(acc, eval(o.Child))
			}
		}
		return acc
	}
	return eval(0), nil
}

// BroadcastDual returns the single-item broadcast schedule that is the time
// reversal of this summation plan — Section 5's structural correspondence
// made concrete. The dual runs on the lazy machine (L+1, o, g): the plan's
// message from child c (sent at T - label(c)) becomes the parent's
// transmission that makes the datum available at c exactly at label(c).
// Validating the dual against the independent checker verifies that the
// plan's communication pattern really is a legal broadcast pattern reversed.
func (pl *Plan) BroadcastDual() (*schedule.Schedule, error) {
	lm := Lazy(pl.M)
	lm.P = pl.Tree.P()
	dual := &core.Tree{M: lm, Nodes: pl.Tree.Nodes}
	return core.TreeSchedule(dual, 0, nil, 0)
}
