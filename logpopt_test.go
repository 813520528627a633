package logpopt_test

import (
	"strings"
	"testing"

	logpopt "logpopt"
)

// The facade tests exercise the public API end to end, the way a library
// user would.

func TestQuickstartFlow(t *testing.T) {
	m := logpopt.ProfilePaperFig1
	if got := logpopt.BroadcastTime(m, m.P); got != 24 {
		t.Fatalf("B(8) = %d, want 24", got)
	}
	tr := logpopt.OptimalBroadcastTree(m, m.P)
	if tr.P() != 8 || tr.MaxLabel() != 24 {
		t.Fatalf("tree P=%d max=%d", tr.P(), tr.MaxLabel())
	}
	s := logpopt.BroadcastSchedule(m, 0)
	if vs := logpopt.ValidateBroadcastSchedule(s, logpopt.BroadcastOrigins(0)); len(vs) != 0 {
		t.Fatal(vs[0])
	}
	if g := logpopt.Gantt(s); !strings.Contains(g, "P7") {
		t.Fatal("gantt missing processor rows")
	}
}

func TestPublicKItem(t *testing.T) {
	b := logpopt.KItemBoundsFor(3, 10, 8)
	if b.SingleSending != 17 {
		t.Fatalf("single-sending bound %d, want 17", b.SingleSending)
	}
	_, s, err := logpopt.KItemOptimal(3, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.LastRecv() != 17 {
		t.Fatalf("optimal k-item finishes at %d", s.LastRecv())
	}
	res, err := logpopt.KItemGreedy(3, 10, 8, logpopt.KItemStrict)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Finish) < b.Lower {
		t.Fatalf("greedy %d beats lower bound %d", res.Finish, b.Lower)
	}
}

func TestPublicCombineAndReduce(t *testing.T) {
	vals := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	got, err := logpopt.CombineRun(3, 7, vals, func(x, y string) string { return x + y })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 || len(got[0]) != 9 {
		t.Fatalf("combine result %v", got)
	}
	m := logpopt.Postal(9, 3)
	sum, T, err := logpopt.ReduceRun(m, []int{1, 2, 3, 4, 5, 6, 7, 8, 9}, func(a, b int) int { return a + b })
	if err != nil || sum != 45 || T != 7 {
		t.Fatalf("reduce = %d at %d (%v)", sum, T, err)
	}
}

func TestPublicSummation(t *testing.T) {
	m := logpopt.ProfilePaperFig6
	n := logpopt.SummationCapacity(m, 28)
	if n != 79 {
		t.Fatalf("n(28) = %d, want 79", n)
	}
	if got := logpopt.SummationTimeFor(m, 79); got != 28 {
		t.Fatalf("t(79) = %d, want 28", got)
	}
	pl, err := logpopt.BuildSummation(m, 28)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]int, pl.N)
	want := 0
	for i := range ops {
		ops[i] = i
		want += i
	}
	got, err := logpopt.ExecuteSummation(pl, ops, func(a, b int) int { return a + b })
	if err != nil || got != want {
		t.Fatalf("sum = %d, want %d (%v)", got, want, err)
	}
}

func TestPublicAllToAll(t *testing.T) {
	m := logpopt.Postal(9, 3)
	s := logpopt.AllToAllSchedule(m, 1)
	if got, want := s.LastRecv(), logpopt.AllToAllLowerBound(m, 1); got != want {
		t.Fatalf("all-to-all %d, want %d", got, want)
	}
}

func TestPublicContinuous(t *testing.T) {
	inst, s, err := logpopt.ContinuousSolveAndSchedule(3, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := logpopt.VerifyContinuousDelay(s, 12, inst.Delay())
	if err != nil || worst != 10 {
		t.Fatalf("delay %d (%v), want 10", worst, err)
	}
	l2, err := logpopt.ContinuousL2(6)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Delay() != 9 {
		t.Fatalf("L=2 delay %d, want 9", l2.Delay())
	}
}

func TestPublicBaselines(t *testing.T) {
	m := logpopt.Postal(64, 4)
	opt := logpopt.BroadcastTime(m, 64)
	if logpopt.BaselineTreeTime(logpopt.BinomialTree(m, 64)) <= opt {
		t.Fatal("binomial tree should be slower in the postal model")
	}
	if logpopt.ReduceThenBroadcastTime(m, 64) != 2*opt {
		t.Fatal("reduce+broadcast should cost 2B")
	}
}

func TestPublicRuntime(t *testing.T) {
	m := logpopt.Postal(4, 2)
	s := logpopt.BroadcastSchedule(m, 0)
	rt, err := logpopt.NewRuntime(m, logpopt.RTStrict, logpopt.ScheduleHandlers(s))
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(logpopt.RuntimeHorizon(s))
	if vs := rt.Violations(); len(vs) != 0 {
		t.Fatal(vs)
	}
	if got, want := rt.Trace().LastRecv(), logpopt.BroadcastTime(m, 4); got != want {
		t.Fatalf("runtime finished at %d, want %d", got, want)
	}
}

func TestPublicScatterGatherScan(t *testing.T) {
	m := logpopt.Postal(9, 3)
	if got, want := logpopt.ScatterSchedule(m).LastRecv(), logpopt.ScatterLowerBound(m); got != want {
		t.Fatalf("scatter %d, want %d", got, want)
	}
	if got, want := logpopt.GatherSchedule(m).LastRecv(), logpopt.ScatterLowerBound(m); got != want {
		t.Fatalf("gather %d, want %d", got, want)
	}
	res, T, err := logpopt.ScanRun(m, []int{1, 2, 3, 4, 5, 6, 7, 8, 9}, func(a, b int) int { return a + b })
	if err != nil || T != 2*logpopt.BroadcastTime(m, 9) {
		t.Fatalf("scan T=%d err=%v", T, err)
	}
	if res[0] != 1 { // root has rank 0
		t.Fatalf("scan root = %d", res[0])
	}
	if len(logpopt.ScanRanks(m, 9)) != 9 {
		t.Fatal("scan ranks wrong length")
	}
}

func TestPublicKItemGeneralAndStaggered(t *testing.T) {
	_, s, err := logpopt.KItemOptimalGeneral(3, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := logpopt.KItemBoundsFor(3, 12, 5).SingleSending
	if got := int64(s.LastRecv()); got != want {
		t.Fatalf("general optimal %d, want %d", got, want)
	}
	res, err := logpopt.KItemStaggered(3, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Finish) != want {
		t.Fatalf("staggered %d, want %d", res.Finish, want)
	}
	best, done, err := logpopt.KItemSearchOptimal(2, 3, 2, 0)
	if err != nil || !done || best != 4 {
		t.Fatalf("search: %d %v %v", best, done, err)
	}
}

func TestPublicJSONRoundTrip(t *testing.T) {
	m := logpopt.Postal(5, 2)
	s := logpopt.BroadcastSchedule(m, 0)
	var buf strings.Builder
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := logpopt.ReadScheduleJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.LastRecv() != s.LastRecv() {
		t.Fatal("JSON round trip changed the schedule")
	}
}

func TestPublicRenderers(t *testing.T) {
	m := logpopt.Postal(5, 2)
	s := logpopt.BroadcastSchedule(m, 0)
	if !strings.Contains(logpopt.TimelineSVG(s), "<svg") {
		t.Fatal("SVG renderer broken")
	}
	tree := logpopt.OptimalBroadcastTree(m, 5)
	if !strings.Contains(tree.DOT("x"), "digraph") {
		t.Fatal("DOT renderer broken")
	}
	if logpopt.NewSeq(2).Growth() < 1.6 {
		t.Fatal("growth rate broken")
	}
}
