package baseline

import (
	"slices"
	"testing"
	"testing/quick"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/schedule"
	"logpopt/internal/sim"
)

func validateTree(t *testing.T, tr *core.Tree, name string) {
	t.Helper()
	if err := tr.Validate(false); err != nil {
		t.Fatalf("%s tree invalid: %v", name, err)
	}
	s, err := Schedule(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vs := schedule.ValidateBroadcast(s, core.Origins(0)); len(vs) != 0 {
		t.Fatalf("%s schedule: %v", name, vs[0])
	}
	_, rep := sim.Run(s, sim.Strict, core.Origins(0))
	if len(rep.Violations) != 0 {
		t.Fatalf("%s sim: %v", name, rep.Violations[0])
	}
	if rep.Finish != TreeTime(tr) {
		t.Fatalf("%s: sim finish %d, tree time %d", name, rep.Finish, TreeTime(tr))
	}
}

func TestBaselineTreesValidate(t *testing.T) {
	machines := []logp.Machine{
		logp.MustNew(8, 6, 2, 4),
		logp.Postal(16, 3),
		logp.MustNew(20, 10, 1, 2),
	}
	for _, m := range machines {
		for _, p := range []int{2, 3, 7, m.P} {
			mm := m.WithP(p)
			validateTree(t, LinearTree(mm, p), "linear")
			validateTree(t, FlatTree(mm, p), "flat")
			validateTree(t, BinaryTree(mm, p), "binary")
			validateTree(t, BinomialTree(mm, p), "binomial")
		}
	}
}

func TestLinearTime(t *testing.T) {
	m := logp.MustNew(8, 6, 2, 4)
	if got, want := TreeTime(LinearTree(m, 8)), logp.Time(7*10); got != want {
		t.Fatalf("linear time %d, want %d", got, want)
	}
}

func TestFlatTime(t *testing.T) {
	m := logp.MustNew(8, 6, 2, 4)
	if got, want := TreeTime(FlatTree(m, 8)), logp.Time(6*4+10); got != want {
		t.Fatalf("flat time %d, want %d", got, want)
	}
}

func TestOptimalNeverLoses(t *testing.T) {
	// B(P) <= every baseline's completion time, with strict inequality for
	// the binomial tree whenever g < L+2o and P is large enough for the
	// extra sends to matter.
	f := func(l, o, g, p uint8) bool {
		m := logp.Machine{
			P: int(p%40) + 2,
			L: logp.Time(l%8) + 1,
			O: logp.Time(o % 4),
			G: logp.Time(g%5) + 1,
		}
		opt := core.B(m, m.P)
		for _, tr := range []*core.Tree{
			LinearTree(m, m.P), FlatTree(m, m.P), BinaryTree(m, m.P), BinomialTree(m, m.P),
		} {
			if TreeTime(tr) < opt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialEqualsOptimalWhenGapIsSpan(t *testing.T) {
	// When g = L + 2o the universal optimal tree IS the binomial tree.
	m := logp.MustNew(32, 4, 1, 6) // L+2o = 6 = g
	if got, want := TreeTime(BinomialTree(m, 32)), core.B(m, 32); got != want {
		t.Fatalf("binomial %d != optimal %d", got, want)
	}
}

// TestBinomialTreeMatchesSearch pins BinomialTree, which builds through
// logtime.Tree, node for node to the heap search on the same fake machine
// (g raised to L+2o). The sweep spans both g >= L+2o, where the binomial
// tree is the optimal tree, and g < L+2o, where it is slower.
func TestBinomialTreeMatchesSearch(t *testing.T) {
	const maxP = 20000
	for l := logp.Time(1); l <= 12; l++ {
		for o := logp.Time(0); o <= 4; o++ {
			for _, p := range []int{1, 2, 3, 7, 64, 511, 512, 5000, maxP} {
				// Gaps below L+2o share one fake machine, so the search
				// oracle runs once per fake gap.
				oracle := map[logp.Time]*core.Tree{}
				for g := logp.Time(1); g <= 8; g++ {
					m := logp.MustNew(maxP, l, o, g)
					fake := m
					fake.G = max(g, m.D())
					want, ok := oracle[fake.G]
					if !ok {
						want = core.OptimalTree(fake, p)
						oracle[fake.G] = want
					}
					got := BinomialTree(m, p)
					if got.M != m {
						t.Fatalf("%v P=%d: tree machine %v", m, p, got.M)
					}
					if !sameNodes(got.Nodes, want.Nodes) {
						t.Fatalf("%v P=%d: binomial tree differs from core.OptimalTree(%v, %d)", m, p, fake, p)
					}
				}
			}
		}
	}
}

func sameNodes(a, b []core.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Label != b[i].Label || a[i].Parent != b[i].Parent || !slices.Equal(a[i].Children, b[i].Children) {
			return false
		}
	}
	return true
}

func TestBinomialSlowerWhenGapSmall(t *testing.T) {
	m := logp.Postal(64, 4) // g=1 << L
	if TreeTime(BinomialTree(m, 64)) <= core.B(m, 64) {
		t.Fatal("binomial should lose when g < L+2o")
	}
}

func TestSequentialPipelined(t *testing.T) {
	for _, c := range []struct {
		l    logp.Time
		p, k int
	}{{3, 10, 8}, {2, 6, 5}, {4, 15, 3}} {
		s, finish, err := SequentialPipelined(c.l, c.p, c.k)
		if err != nil {
			t.Fatal(err)
		}
		og := make(map[int]schedule.Origin, c.k)
		for x := 0; x < c.k; x++ {
			og[x] = schedule.Origin{Proc: 0}
		}
		if vs := schedule.ValidateBroadcast(s, og); len(vs) != 0 {
			t.Fatalf("L=%d P=%d k=%d: %v", c.l, c.p, c.k, vs[0])
		}
		// Slower than the paper's optimum for k > 1 on nontrivial trees.
		seq := core.NewSeq(int(c.l))
		opt := seq.SingleSendingLowerBound(c.p, int64(c.k))
		if int64(finish) < opt {
			t.Fatalf("baseline beats the single-sending bound: %d < %d", finish, opt)
		}
	}
}

func TestSequentialPipelinedRejects(t *testing.T) {
	if _, _, err := SequentialPipelined(3, 1, 2); err == nil {
		t.Fatal("P=1 accepted")
	}
	if _, _, err := SequentialPipelined(3, 5, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestReduceThenBroadcastFactorTwo(t *testing.T) {
	m := logp.Postal(9, 3)
	if got, want := ReduceThenBroadcastTime(m, 9), 2*core.B(m, 9); got != want {
		t.Fatalf("reduce+broadcast %d, want %d", got, want)
	}
}
