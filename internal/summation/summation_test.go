package summation

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs"
	"logpopt/internal/schedule"
)

func TestFigure6Capacity(t *testing.T) {
	// Figure 6's machine: t=28, P=8, L=5, g=4, o=2. The lazy machine is
	// (L+1)=6, o=2, g=4, whose 8 smallest universal labels are
	// 0,10,14,18,20,22,24,24; n(28) = 3 + sum(26 - d) = 79.
	m := logp.MustNew(8, 5, 2, 4)
	if n := Capacity(m, 28); n != 79 {
		t.Fatalf("n(28) = %d, want 79", n)
	}
	tr := logtime.Tree(Lazy(m), size(logtime.MustBuilder(Lazy(m)), 28))
	if tr.P() != 8 {
		t.Fatalf("summation tree uses %d processors, want 8", tr.P())
	}
	if got := tr.MaxLabel(); got != 24 {
		t.Fatalf("deepest node at %d, want 24", got)
	}
}

func TestFigure6PlanAndSchedule(t *testing.T) {
	m := logp.MustNew(8, 5, 2, 4)
	pl, err := Build(m, 28)
	if err != nil {
		t.Fatal(err)
	}
	if pl.N != 79 {
		t.Fatalf("plan capacity %d, want 79", pl.N)
	}
	s := pl.Schedule()
	if vs := schedule.Validate(s); len(vs) != 0 {
		t.Fatalf("schedule violations: %v", vs[0])
	}
	// The root's last fold completes exactly at T.
	rootOps := pl.Ops[0]
	last := rootOps[len(rootOps)-1]
	var end logp.Time
	if last.Kind == OpRecvFold {
		end = last.At + m.O + 1
	} else {
		end = last.At + 1
	}
	if end != 28 {
		t.Fatalf("root finishes at %d, want 28", end)
	}
}

func TestExecuteIntSum(t *testing.T) {
	machines := []logp.Machine{
		logp.MustNew(8, 5, 2, 4),
		logp.Postal(16, 3),
		logp.MustNew(4, 2, 0, 1),
		logp.MustNew(32, 10, 1, 3),
	}
	for _, m := range machines {
		for _, tt := range []logp.Time{0, 1, 5, 13, 28, 40} {
			pl, err := Build(m, tt)
			if err != nil {
				t.Fatalf("%v t=%d: %v", m, tt, err)
			}
			ops := make([]int, pl.N)
			want := 0
			for i := range ops {
				ops[i] = 7*i + 3
				want += ops[i]
			}
			got, err := Execute(pl, ops, func(a, b int) int { return a + b })
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v t=%d: sum = %d, want %d", m, tt, got, want)
			}
		}
	}
}

func TestExecuteNonCommutative(t *testing.T) {
	// With string concatenation and the in-order operand numbering, the
	// result must be exactly operands[0] + operands[1] + ... — this pins
	// down the renumbering argument of the paper's footnote 2.
	m := logp.MustNew(8, 5, 2, 4)
	pl, err := Build(m, 28)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]string, pl.N)
	var want strings.Builder
	for i := range ops {
		ops[i] = fmt.Sprintf("<%d>", i)
		want.WriteString(ops[i])
	}
	got, err := Execute(pl, ops, func(a, b string) string { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if got != want.String() {
		t.Fatalf("non-commutative result mismatch:\ngot  %s\nwant %s", got, want.String())
	}
}

func TestCapacityMonotone(t *testing.T) {
	m := logp.MustNew(16, 4, 1, 3)
	prev := int64(-1)
	for tt := logp.Time(0); tt <= 60; tt++ {
		n := Capacity(m, tt)
		if n <= prev {
			t.Fatalf("capacity not strictly increasing at t=%d: %d then %d", tt, prev, n)
		}
		prev = n
	}
}

func TestTimeForInverse(t *testing.T) {
	machines := []logp.Machine{
		logp.Postal(8, 2),
		logp.MustNew(8, 5, 2, 4),
		logp.MustNew(64, 6, 1, 2),
	}
	for _, m := range machines {
		for _, n := range []int64{1, 2, 3, 10, 79, 200, 1000} {
			tt := TimeFor(m, n)
			c := Capacity(m, tt)
			if c < n {
				t.Fatalf("%v n=%d: capacity(%d) = %d < n", m, n, tt, c)
			}
			if tt > 0 {
				if c2 := Capacity(m, tt-1); c2 >= n {
					t.Fatalf("%v n=%d: TimeFor=%d not minimal", m, n, tt)
				}
			}
		}
	}
}

func TestSingleProcessor(t *testing.T) {
	m := logp.MustNew(1, 3, 1, 2)
	for tt := logp.Time(0); tt <= 10; tt++ {
		n := Capacity(m, tt)
		if n != int64(tt)+1 {
			t.Fatalf("P=1 capacity(%d) = %d, want %d", tt, n, tt+1)
		}
	}
}

func TestSmallDeadlines(t *testing.T) {
	// For t <= o no reception completes; capacity is t+1 (local only).
	m := logp.MustNew(8, 5, 2, 4)
	for tt := logp.Time(0); tt <= 2; tt++ {
		n := Capacity(m, tt)
		if n != int64(tt)+1 {
			t.Fatalf("capacity(%d) = %d, want %d", tt, n, tt+1)
		}
	}
}

func TestScheduleValidProperty(t *testing.T) {
	f := func(l, o, g, p, dt uint8) bool {
		oo := logp.Time(o % 3)
		m := logp.Machine{
			P: int(p%10) + 1,
			L: logp.Time(l%6) + 1,
			O: oo,
			G: oo + 1 + logp.Time(g%3),
		}
		tt := logp.Time(dt % 40)
		pl, err := Build(m, tt)
		if err != nil {
			return false
		}
		s := pl.Schedule()
		if len(schedule.Validate(s)) != 0 {
			return false
		}
		// Execute and check the sum.
		ops := make([]int, pl.N)
		want := 0
		for i := range ops {
			ops[i] = i + 1
			want += ops[i]
		}
		got, err := Execute(pl, ops, func(a, b int) int { return a + b })
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsSmallGap(t *testing.T) {
	m := logp.Machine{P: 4, L: 3, O: 2, G: 2} // g < o+1
	if err := Validate(m); err == nil {
		t.Fatal("g < o+1 accepted")
	}
	if _, err := Build(m, 10); err == nil {
		t.Fatal("Build accepted g < o+1")
	}
}

func TestExecuteWrongOperandCount(t *testing.T) {
	m := logp.Postal(4, 2)
	pl, err := Build(m, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(pl, []int{1, 2}, func(a, b int) int { return a + b }); err == nil {
		t.Fatal("wrong operand count accepted")
	}
}

func TestOperandOrderIsPermutation(t *testing.T) {
	m := logp.MustNew(8, 5, 2, 4)
	pl, err := Build(m, 28)
	if err != nil {
		t.Fatal(err)
	}
	order := pl.OperandOrder()
	seen := make(map[int64]bool)
	var total int64
	for ni, idxs := range order {
		if int64(len(idxs)) != pl.Locals[ni] {
			t.Fatalf("node %d folds %d operands, plan says %d", ni, len(idxs), pl.Locals[ni])
		}
		for _, ix := range idxs {
			if seen[ix] {
				t.Fatalf("operand %d assigned twice", ix)
			}
			seen[ix] = true
			total++
		}
	}
	if total != pl.N {
		t.Fatalf("order covers %d operands, want %d", total, pl.N)
	}
}

func TestLemma51Identity(t *testing.T) {
	// n = sum_i (S_i - (o+1) k_i) + P: check the per-processor accounting
	// against the built plan across machines and deadlines.
	machines := []logp.Machine{
		logp.Postal(16, 3),
		logp.MustNew(8, 5, 2, 4),
		logp.MustNew(12, 7, 1, 4),
	}
	for _, m := range machines {
		for _, tt := range []logp.Time{3, 9, 17, 28, 41} {
			pl, err := Build(m, tt)
			if err != nil {
				t.Fatal(err)
			}
			var n int64
			for ni := range pl.Tree.Nodes {
				k := int64(len(pl.Tree.Nodes[ni].Children))
				n += int64(pl.SendAt[ni]) - (int64(m.O)+1)*k + 1
			}
			if n != pl.N {
				t.Fatalf("%v t=%d: Lemma 5.1 accounting %d != plan %d", m, tt, n, pl.N)
			}
		}
	}
}

// exhaustiveCapacity computes the true maximum number of operands summable
// in t cycles by brute force over all lazy single-send summation trees:
// communication patterns are reversed broadcast trees on the (L+1, o, g)
// machine (Section 5's correspondence), so we enumerate every tree shape —
// not just the universal-greedy one — and maximize the total contribution
// (o+1) + sum(t - d_i - o). This independently verifies that the greedy
// universal tree in Capacity is optimal (Lemma 5.1's optimality argument).
func exhaustiveCapacity(m logp.Machine, t logp.Time) int64 {
	lm := logp.Machine{P: m.P, L: m.L + 1, O: m.O, G: m.G}
	d := lm.D()
	stride := lm.G
	if lm.O > stride {
		stride = lm.O
	}
	best := int64(t) + 1 // root alone: one free operand plus t unit adds
	var rec func(cands []logp.Time, nodes int, contrib int64)
	rec = func(cands []logp.Time, nodes int, contrib int64) {
		if contrib > best {
			best = contrib
		}
		if nodes >= m.P {
			return
		}
		seen := map[logp.Time]bool{}
		for i, c := range cands {
			if c > t-m.O-1 || seen[c] {
				continue // non-positive contribution or symmetric duplicate
			}
			seen[c] = true
			save := cands[i]
			cands[i] = c + stride
			next := append(cands, c+d)
			rec(next, nodes+1, contrib+int64(t-c-m.O))
			cands[i] = save
		}
	}
	rec([]logp.Time{d}, 1, int64(t)+1)
	return best
}

func TestCapacityExhaustiveSmall(t *testing.T) {
	machines := []logp.Machine{
		logp.MustNew(4, 2, 0, 1),
		logp.MustNew(5, 3, 1, 2),
		logp.MustNew(6, 5, 2, 4),
		logp.MustNew(4, 1, 0, 2),
	}
	for _, m := range machines {
		for tt := logp.Time(0); tt <= 18; tt++ {
			want := exhaustiveCapacity(m, tt)
			got := Capacity(m, tt)
			if got != want {
				t.Fatalf("%v t=%d: Capacity=%d, exhaustive=%d", m, tt, got, want)
			}
		}
	}
}

func TestBroadcastDual(t *testing.T) {
	// Section 5's duality: the plan's communication pattern reversed is an
	// optimal broadcast on the (L+1, o, g) machine. The dual must validate
	// and complete at max label = T - min send time, and each plan send at
	// S must correspond to dual availability at T - S.
	for _, m := range []logp.Machine{logp.MustNew(8, 5, 2, 4), logp.Postal(16, 3)} {
		pl, err := Build(m, 28)
		if err != nil {
			t.Fatal(err)
		}
		dual, err := pl.BroadcastDual()
		if err != nil {
			t.Fatal(err)
		}
		og := map[int]schedule.Origin{0: {Proc: 0, Time: 0}}
		if vs := schedule.ValidateBroadcast(dual, og); len(vs) != 0 {
			t.Fatalf("%v: dual invalid: %v", m, vs[0])
		}
		for ni := range pl.Tree.Nodes {
			if pl.SendAt[ni]+pl.Tree.Nodes[ni].Label != pl.T {
				t.Fatalf("%v: node %d sends at %d but dual availability is %d (T=%d)",
					m, ni, pl.SendAt[ni], pl.Tree.Nodes[ni].Label, pl.T)
			}
		}
	}
}

// sumShapes are machines that admit lazy summation (g >= o+1): the paper's
// Figure 6 and Figure 1 machines, postal machines, g far above d,
// d ≡ 1 (mod stride), one processor, and enough processors that the
// deadline, not P, caps the tree.
var sumShapes = []logp.Machine{
	logp.MustNew(8, 5, 2, 4),
	logp.MustNew(8, 6, 2, 4),
	logp.MustNew(12, 7, 1, 3),
	logp.MustNew(9, 1, 0, 1),
	logp.MustNew(10, 5, 2, 9),
	logp.MustNew(11, 4, 1, 5),
	logp.MustNew(1, 3, 1, 2),
	logp.MustNew(1000, 6, 2, 4),
	logp.Postal(16, 3),
	logp.Postal(64, 1),
}

// treeWalkCapacity is Lemma 5.1's n(t) the long way: count the admissible
// nodes with core.Pt's time-indexed memo, build them with the heap search,
// and add up each node's t - label - o. It is the oracle for Capacity's
// closed form.
func treeWalkCapacity(m logp.Machine, t logp.Time) int64 {
	if t < 0 {
		return 0
	}
	lm := Lazy(m)
	p := 1
	if maxLabel := t - m.O - 1; maxLabel >= 0 {
		p = int(max(1, min(core.Pt(lm, maxLabel, int64(m.P)), int64(m.P))))
	}
	n := int64(m.O) + 1
	for _, nd := range core.OptimalTree(lm, p).Nodes {
		if c := t - nd.Label - m.O; c > 0 {
			n += int64(c)
		} else if nd.Parent == -1 {
			return int64(t) + 1 // the root alone, folding one operand per cycle
		}
	}
	return n
}

// TestCapacityMatchesTreeWalk: the closed form equals the tree walk, and
// TimeFor inverts it exactly as a search over the tree walk would.
func TestCapacityMatchesTreeWalk(t *testing.T) {
	for _, m := range sumShapes {
		for tt := logp.Time(-1); tt <= 80; tt++ {
			if got, want := Capacity(m, tt), treeWalkCapacity(m, tt); got != want {
				t.Fatalf("%v t=%d: Capacity %d, tree walk %d", m, tt, got, want)
			}
		}
		for _, n := range []int64{1, 2, 50, 79, 1000} {
			tt := TimeFor(m, n)
			if treeWalkCapacity(m, tt) < n || tt > 0 && treeWalkCapacity(m, tt-1) >= n {
				t.Fatalf("%v: TimeFor(%d) = %d is not the tree walk's minimal deadline", m, n, tt)
			}
		}
	}
}

// TestCapacityOverflowPanics: a deadline whose n(t) cannot fit in int64
// panics with the reason instead of wrapping.
func TestCapacityOverflowPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "overflows int64") {
			t.Fatalf("recovered %v, want an overflow panic", r)
		}
	}()
	Capacity(logp.MustNew(4, 6, 2, 4), math.MaxInt64)
}

// TestTimeForLargeN: TimeFor answers for n up to MaxInt64, where its first
// probes sit at deadlines whose capacity overflows int64 (an overflowing
// capacity exceeds n; the minimal deadline's own capacity may overflow).
func TestTimeForLargeN(t *testing.T) {
	for _, m := range []logp.Machine{logp.ProfilePaperFig6, logp.MustNew(1, 3, 1, 2), logp.Postal(64, 1)} {
		for _, n := range []int64{1 << 62, math.MaxInt64 - 1, math.MaxInt64} {
			tt := TimeFor(m, n)
			b := logtime.MustBuilder(Lazy(m))
			c, ok := capacity(b, tt, size(b, tt))
			if ok && c < n || Capacity(m, tt-1) >= n {
				t.Fatalf("%v: TimeFor(%d) = %d is not the minimal deadline", m, n, tt)
			}
		}
	}
}

// TestNode checks the per-rank answers against the plan Build materializes:
// send time, local operand count, parent, and each child's fold arrival.
func TestNode(t *testing.T) {
	for _, m := range sumShapes {
		for tt := logp.Time(0); tt <= 40; tt++ {
			pl, err := Build(m, tt)
			if err != nil {
				t.Fatalf("%v t=%d: %v", m, tt, err)
			}
			for r := 0; r < pl.Tree.P(); r++ {
				sn := Node(m, tt, r)
				if sn.SendAt != pl.SendAt[r] || sn.Locals != pl.Locals[r] || sn.Parent != pl.Tree.Nodes[r].Parent {
					t.Fatalf("%v t=%d rank %d: send %d locals %d parent %d; plan %d, %d, %d", m, tt, r,
						sn.SendAt, sn.Locals, sn.Parent, pl.SendAt[r], pl.Locals[r], pl.Tree.Nodes[r].Parent)
				}
				// Plan ops are time-sorted, Node's folds are in child
				// order: compare as sets of (child, arrival).
				want := map[[2]int64]bool{}
				for _, op := range pl.Ops[r] {
					if op.Kind == OpRecvFold {
						want[[2]int64{int64(op.Child), int64(op.At)}] = true
					}
				}
				got := map[[2]int64]bool{}
				for i, c := range sn.Folds {
					got[[2]int64{int64(c), int64(sn.Arrive[i])}] = true
				}
				if len(sn.Folds) != len(sn.Arrive) || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%v t=%d rank %d: folds %v at %v, plan %v", m, tt, r, sn.Folds, sn.Arrive, want)
				}
			}
		}
	}
}

// TestBuildGrowsOneBuilder: Build admits exactly the label points that one
// lazy-machine builder admits to size the plan and materialize its tree:
// the tree comes from the builder that sized it, not from a second one.
func TestBuildGrowsOneBuilder(t *testing.T) {
	admitted := obs.Default.Counter("logtime.points.admitted")
	m := logp.MustNew(1000, 5, 2, 4)
	for _, dl := range []logp.Time{28, 200} {
		before := admitted.Value()
		if _, err := Build(m, dl); err != nil {
			t.Fatal(err)
		}
		got := admitted.Value() - before

		before = admitted.Value()
		b := logtime.MustBuilder(Lazy(m))
		p := size(b, dl)
		capacity(b, dl, p)
		b.Tree(p)
		if want := admitted.Value() - before; got != want {
			t.Errorf("t=%d: Build admitted %d label points, one builder admits %d", dl, got, want)
		}
	}
}
