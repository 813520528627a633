package logtime

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/schedule"
)

// shapes covers the paper's machines plus shapes that stress every branch of
// the counting tables: postal (d=l, stride=1), o > g (stride = o), g
// dividing d and not, and a huge-latency machine where the dense memo of
// core.Pt would be hopeless but small P keeps the search tree buildable.
var shapes = []logp.Machine{
	logp.MustNew(8, 6, 2, 4),  // Figure 1
	logp.MustNew(12, 7, 1, 3), // paper variant
	logp.MustNew(9, 1, 0, 1),  // minimal
	logp.MustNew(16, 2, 3, 2), // o > g: stride = o
	logp.MustNew(10, 5, 2, 9), // stride > d/2
	logp.Postal(16, 3),        // postal
	logp.Postal(64, 1),        // binomial regime
	logp.MustNew(11, 4, 1, 5), // d ≡ 1 (mod stride)
}

// ps biases toward the off-power-of-two counts the ISSUE calls out.
var ps = []int{1, 2, 3, 5, 7, 8, 15, 16, 63, 64, 65, 100, 1000}

func withP(m logp.Machine, p int) logp.Machine {
	m.P = p
	return m
}

// TestTreeMatchesOptimalTree is the core claim: the counting construction
// reproduces the heap search node for node — indices, parents, child order,
// labels — so the two constructors are interchangeable everywhere.
func TestTreeMatchesOptimalTree(t *testing.T) {
	for _, m := range shapes {
		b := MustBuilder(m)
		for _, p := range ps {
			want := core.OptimalTree(m, p)
			got := b.Tree(p)
			if !reflect.DeepEqual(got.Nodes, want.Nodes) {
				t.Fatalf("%v P=%d: logtime tree differs from search tree\nsearch:\n%s\nlogtime:\n%s",
					m, p, want, got)
			}
			if got.M != want.M {
				t.Fatalf("%v P=%d: machine mismatch", m, p)
			}
			if err := got.Validate(true); err != nil {
				t.Fatalf("%v P=%d: %v", m, p, err)
			}
		}
	}
}

func TestBTimeMatchesCoreB(t *testing.T) {
	for _, m := range shapes {
		b := MustBuilder(m)
		for _, p := range ps {
			if got, want := b.BTime(p), core.B(m, p); got != want {
				t.Fatalf("%v: BTime(%d) = %d, core.B = %d", m, p, got, want)
			}
		}
	}
}

func TestCountMatchesPt(t *testing.T) {
	for _, m := range shapes {
		b := MustBuilder(m)
		for tau := logp.Time(-1); tau <= 40; tau++ {
			if got, want := b.Count(tau, 1<<20), core.Pt(m, max(tau, 0), 1<<20); tau >= 0 && got != want {
				t.Fatalf("%v: Count(%d) = %d, core.Pt = %d", m, tau, got, want)
			} else if tau < 0 && b.Count(tau, 0) != 0 {
				t.Fatalf("%v: Count(%d) != 0", m, tau)
			}
		}
	}
}

// TestCountSaturatesAtCap: a cap above the count's saturation point answers
// that point, so a larger cap never gives a smaller count. In the binomial
// regime N(70) = 2^70 saturates.
func TestCountSaturatesAtCap(t *testing.T) {
	b := MustBuilder(logp.Postal(2, 1))
	for _, c := range []struct{ maxCount, want int64 }{
		{1 << 62, 1 << 62},
		{1<<62 + 1, 1 << 62},
		{math.MaxInt64, 1 << 62},
	} {
		if got := b.Count(70, c.maxCount); got != c.want {
			t.Errorf("Count(70, %d) = %d, want %d", c.maxCount, got, c.want)
		}
	}
}

// TestNodeMatchesTree checks the O(log P) per-rank answers against the
// materialized tree: label, parent, child position, send time, children.
func TestNodeMatchesTree(t *testing.T) {
	for _, m := range shapes {
		b := MustBuilder(m)
		stride := core.SendStride(m)
		for _, p := range ps {
			tr := b.Tree(p)
			for r := 0; r < p; r++ {
				ni := b.Node(p, r)
				nd := tr.Nodes[r]
				if ni.Label != nd.Label {
					t.Fatalf("%v P=%d rank %d: label %d, tree %d", m, p, r, ni.Label, nd.Label)
				}
				if ni.Parent != nd.Parent {
					t.Fatalf("%v P=%d rank %d: parent %d, tree %d", m, p, r, ni.Parent, nd.Parent)
				}
				if !reflect.DeepEqual(ni.Children, nd.Children) && !(len(ni.Children) == 0 && len(nd.Children) == 0) {
					t.Fatalf("%v P=%d rank %d: children %v, tree %v", m, p, r, ni.Children, nd.Children)
				}
				if r > 0 {
					wantIdx := -1
					for i, c := range tr.Nodes[nd.Parent].Children {
						if c == r {
							wantIdx = i
						}
					}
					if ni.ChildIdx != wantIdx {
						t.Fatalf("%v P=%d rank %d: childIdx %d, tree %d", m, p, r, ni.ChildIdx, wantIdx)
					}
					if want := tr.Nodes[nd.Parent].Label + logp.Time(wantIdx)*stride; ni.SendAt != want {
						t.Fatalf("%v P=%d rank %d: sendAt %d, want %d", m, p, r, ni.SendAt, want)
					}
				}
			}
		}
	}
}

// TestHugeParameters exercises the sparse point tables where the search
// constructor still works but a dense time-indexed memo (core.Pt's strategy)
// would need terabytes: L around 2^31 and beyond-2^31 event times.
func TestHugeParameters(t *testing.T) {
	m := logp.MustNew(1024, 1<<31, 3, 5)
	b := MustBuilder(m)
	want := core.OptimalTree(m, m.P)
	got := b.Tree(m.P)
	if !reflect.DeepEqual(got.Nodes, want.Nodes) {
		t.Fatal("huge-L tree differs from search tree")
	}
	if bt := b.BTime(m.P); bt != want.MaxLabel() {
		t.Fatalf("BTime = %d, want %d", bt, want.MaxLabel())
	}
	if bt := b.BTime(m.P); bt < 1<<31 {
		t.Fatalf("BTime = %d does not exceed 2^31", bt)
	}
	// Per-rank queries at a P far past anything a tree could materialize
	// cheaply still answer instantly and stay self-consistent.
	big := logp.MustNew(1<<40, 6, 2, 4)
	bb := MustBuilder(big)
	r := 1 << 39
	ni := bb.Node(1<<40, r)
	par := bb.Node(1<<40, ni.Parent)
	found := false
	for _, c := range par.Children {
		if c == r {
			found = true
		}
	}
	if !found {
		t.Fatalf("rank %d missing from its parent %d's children %v", r, ni.Parent, par.Children)
	}
	if want := par.Label + logp.Time(ni.ChildIdx)*core.SendStride(big) + big.D(); ni.Label != want {
		t.Fatalf("rank %d label %d, eager label %d", r, ni.Label, want)
	}
}

func TestBroadcastScheduleIdentical(t *testing.T) {
	for _, m := range shapes {
		want := core.BroadcastSchedule(m, 0)
		got := BroadcastSchedule(m, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: broadcast schedules differ", m)
		}
	}
}

// TestDegenerate pins the P=1 and P=2 contract for the new constructor:
// empty schedule with finish 0, and a single send/recv finishing at o+L+o.
func TestDegenerate(t *testing.T) {
	for _, m := range shapes {
		s1 := BroadcastSchedule(withP(m, 1), 0)
		if len(s1.Events) != 0 || s1.Makespan() != 0 {
			t.Fatalf("%v P=1: %d events, makespan %d", m, len(s1.Events), s1.Makespan())
		}
		s2 := BroadcastSchedule(withP(m, 2), 0)
		if len(s2.Events) != 2 {
			t.Fatalf("%v P=2: %d events", m, len(s2.Events))
		}
		if got, want := B(m, 2), m.L+2*m.O; got != want {
			t.Fatalf("%v: B(2) = %d, want o+L+o = %d", m, got, want)
		}
		if fin := lastAvail(s2); fin != m.L+2*m.O {
			t.Fatalf("%v P=2: finish %d, want %d", m, fin, m.L+2*m.O)
		}
	}
}

// lastAvail is the broadcast finish: the latest reception + o.
func lastAvail(s *schedule.Schedule) logp.Time {
	var mx logp.Time
	for _, ev := range s.Events {
		if ev.Op == schedule.OpRecv && ev.Time+s.M.O > mx {
			mx = ev.Time + s.M.O
		}
	}
	return mx
}

// TestWalkMatchesTree: walk yields exactly the materialized tree's edges,
// parents by rank and children in send order, with each child's label.
func TestWalkMatchesTree(t *testing.T) {
	for _, m := range shapes {
		b := MustBuilder(m)
		for _, p := range ps {
			tr := core.OptimalTree(m, p)
			var want, got [][3]int64
			for ni, n := range tr.Nodes {
				for _, c := range n.Children {
					want = append(want, [3]int64{int64(ni), int64(c), tr.Nodes[c].Label})
				}
			}
			es := b.edges(p)
			if es.b != tr.MaxLabel() {
				t.Fatalf("%v P=%d: edges.b %d, tree max label %d", m, p, es.b, tr.MaxLabel())
			}
			es.walk(func(parent, child int, label logp.Time) bool {
				got = append(got, [3]int64{int64(parent), int64(child), label})
				return true
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v P=%d: walk\n%v\ntree\n%v", m, p, got, want)
			}
		}
	}
}

// TestWalkStops: once yield returns false the walk yields nothing more.
func TestWalkStops(t *testing.T) {
	es := MustBuilder(logp.ProfilePaperFig1).edges(1000)
	for _, stop := range []int{1, 2, 500, 998} {
		n := 0
		if es.walk(func(int, int, logp.Time) bool { n++; return n < stop }) {
			t.Fatalf("stop at %d: walk reported completion", stop)
		}
		if n != stop {
			t.Fatalf("stop at %d: yield ran %d times", stop, n)
		}
	}
}
