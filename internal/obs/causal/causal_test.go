package causal_test

import (
	"fmt"
	"strings"
	"testing"

	"logpopt/internal/baseline"
	"logpopt/internal/combine"
	"logpopt/internal/conform"
	"logpopt/internal/continuous"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/obs/causal"
	"logpopt/internal/schedule"
	"logpopt/internal/summation"
)

// TestBroadcastFig1 checks the headline property on the paper's Figure 1
// machine: the critical path of the optimal broadcast schedule has length
// B(P) exactly, every step is tight, and the gap to the bound is zero.
func TestBroadcastFig1(t *testing.T) {
	m := logp.ProfilePaperFig1
	s := core.BroadcastSchedule(m, 0)
	rep := causal.Analyze(s, core.Origins(0))

	want := core.B(m, m.P)
	if rep.Finish != want {
		t.Fatalf("Finish = %d, want B(%d) = %d", rep.Finish, m.P, want)
	}
	if got := rep.Achieved.Total(); got != rep.Finish {
		t.Fatalf("breakdown totals %d, finish %d", got, rep.Finish)
	}
	if rep.Achieved.Wait != 0 {
		t.Errorf("optimal broadcast has wait %d on its critical path", rep.Achieved.Wait)
	}
	for _, st := range rep.Path {
		if st.Slack != 0 {
			t.Errorf("critical step %+v has slack %d", st.Event, st.Slack)
		}
		if rep.OpSlack[st.Index] != 0 {
			t.Errorf("critical event %d has backward slack %d", st.Index, rep.OpSlack[st.Index])
		}
	}
	if err := rep.SetBound(want, rep.Achieved); err != nil {
		t.Fatal(err)
	}
	if rep.Gap != 0 || rep.Attribution != (causal.Breakdown{}) {
		t.Errorf("gap %d attribution %+v, want zero", rep.Gap, rep.Attribution)
	}
	// The path must end in a reception and start at the source.
	if len(rep.Path) == 0 || rep.Path[len(rep.Path)-1].Event.Op != schedule.OpRecv {
		t.Fatalf("path does not end in a recv: %v", rep.Path)
	}
	if rep.Path[0].Event.Proc != 0 {
		t.Errorf("path root at P%d, want the source P0", rep.Path[0].Event.Proc)
	}
}

// TestContinuousFig2 checks the k-item schedule of Figure 2: finish at
// L + B(P-1) + k - 1 = 17 with a zero-wait critical path.
func TestContinuousFig2(t *testing.T) {
	const l, hor, k = 3, 7, 8
	inst, s, err := continuous.SolveAndSchedule(l, hor, k)
	if err != nil {
		t.Fatal(err)
	}
	rep := causal.Analyze(s, continuous.Origins(k))
	want := logp.Time(inst.Delay() + k - 1)
	if rep.Finish != want {
		t.Fatalf("Finish = %d, want %d", rep.Finish, want)
	}
	if got := rep.Achieved.Total(); got != rep.Finish {
		t.Fatalf("breakdown totals %d, finish %d", got, rep.Finish)
	}
}

// TestSummationFig6 checks that compute edges participate: the optimal
// summation plan for deadline 28 finishes exactly at 28 and its critical
// path carries a compute component.
func TestSummationFig6(t *testing.T) {
	m := logp.ProfilePaperFig6
	pl, err := summation.Build(m, 28)
	if err != nil {
		t.Fatal(err)
	}
	s := pl.Schedule()
	rep := causal.Analyze(s, schedule.DerivedOrigins(s))
	if rep.Finish != 28 {
		t.Fatalf("Finish = %d, want the deadline 28", rep.Finish)
	}
	if got := rep.Achieved.Total(); got != rep.Finish {
		t.Fatalf("breakdown totals %d, finish %d", got, rep.Finish)
	}
	if rep.Achieved.Compute == 0 {
		t.Errorf("summation critical path has no compute component: %s", rep.Achieved)
	}
}

// TestBaselineAttribution analyzes the linear-chain broadcast against the
// optimal bound: the gap must be positive and the attribution components
// must sum to it, with the excess dominated by latency (every hop pays
// L + 2o in a chain).
func TestBaselineAttribution(t *testing.T) {
	m := logp.MustNew(8, 6, 2, 4)
	tr := baseline.LinearTree(m, m.P)
	s, err := baseline.Schedule(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := causal.Analyze(s, core.Origins(0))
	if rep.Finish != baseline.TreeTime(tr) {
		t.Fatalf("Finish = %d, want tree time %d", rep.Finish, baseline.TreeTime(tr))
	}
	bound := core.B(m, m.P)
	ref := causal.Analyze(core.BroadcastSchedule(m, 0), core.Origins(0)).Achieved
	if err := rep.SetBound(bound, ref); err != nil {
		t.Fatal(err)
	}
	if rep.Gap != rep.Finish-bound || rep.Gap <= 0 {
		t.Fatalf("gap = %d, want positive %d", rep.Gap, rep.Finish-bound)
	}
	at := rep.Attribution
	if got := at.Latency + at.Overhead + at.Gap + at.Compute + at.Origin + at.Wait; got != rep.Gap {
		t.Fatalf("attribution sums to %d, gap is %d", got, rep.Gap)
	}
	if at.Latency <= 0 {
		t.Errorf("linear chain gap not latency-dominated: %s", at)
	}
}

// TestBufferedWait checks that a reception later than its arrival shows up
// as wait: one send at 0, arrival at o+L, reception recorded at o+L+5.
func TestBufferedWait(t *testing.T) {
	m := logp.MustNew(2, 4, 1, 2)
	s := &schedule.Schedule{M: m}
	s.Send(0, 0, 7, 1)
	s.Recv(1, m.O+m.L+5, 7, 0)
	rep := causal.Analyze(s, map[int]schedule.Origin{7: {Proc: 0}})
	if rep.Achieved.Wait != 5 {
		t.Errorf("wait = %d, want the 5-cycle buffer delay", rep.Achieved.Wait)
	}
	if rep.Finish != m.O+m.L+5+m.O {
		t.Errorf("finish = %d", rep.Finish)
	}
	if got := rep.Achieved.Total(); got != rep.Finish {
		t.Fatalf("breakdown totals %d, finish %d", got, rep.Finish)
	}
}

// TestEmptyAndOriginOnly covers the degenerate inputs.
func TestEmptyAndOriginOnly(t *testing.T) {
	m := logp.MustNew(2, 1, 0, 1)
	rep := causal.Analyze(&schedule.Schedule{M: m}, nil)
	if rep.Finish != 0 || len(rep.Path) != 0 {
		t.Fatalf("empty schedule: finish %d path %v", rep.Finish, rep.Path)
	}
	rep = causal.Analyze(&schedule.Schedule{M: m}, map[int]schedule.Origin{0: {Proc: 1, Time: 5}})
	if rep.Finish != 5 || rep.Achieved.Origin != 5 {
		t.Fatalf("origin-only: finish %d breakdown %s", rep.Finish, rep.Achieved)
	}
}

// TestNonCriticalSlack: two independent chains, one short — the short one
// must have positive backward slack everywhere the long one has zero.
func TestNonCriticalSlack(t *testing.T) {
	m := logp.MustNew(4, 6, 1, 2)
	s := &schedule.Schedule{M: m}
	// Long chain: 0 -> 1 -> 2 (two hops).
	s.Send(0, 0, 0, 1)
	s.Recv(1, m.O+m.L, 0, 0)
	s.Send(1, m.O+m.L+m.O, 0, 2)
	s.Recv(2, 2*(m.O+m.L)+m.O, 0, 1)
	// Short chain: 0 -> 3 (one hop), started at the gap point.
	s.Send(0, m.G, 1, 3)
	s.Recv(3, m.G+m.O+m.L, 1, 0)
	og := map[int]schedule.Origin{0: {Proc: 0}, 1: {Proc: 0}}
	rep := causal.Analyze(s, og)
	wantFinish := 2*(m.O+m.L) + 2*m.O
	if rep.Finish != wantFinish {
		t.Fatalf("finish %d, want %d", rep.Finish, wantFinish)
	}
	// The short chain's recv (event index 5) must have positive slack.
	if rep.OpSlack[5] <= 0 {
		t.Errorf("non-critical recv slack = %d, want > 0", rep.OpSlack[5])
	}
	if !strings.Contains(rep.Signature(), "finish=") {
		t.Errorf("signature malformed: %q", rep.Signature())
	}
	if !strings.Contains(rep.String(), "critical path") {
		t.Errorf("String() malformed: %q", rep.String())
	}
}

// TestSetBoundRejectsMismatch: the reference breakdown must total the bound.
func TestSetBoundRejectsMismatch(t *testing.T) {
	m := logp.ProfilePaperFig1
	rep := causal.Analyze(core.BroadcastSchedule(m, 0), core.Origins(0))
	if err := rep.SetBound(10, causal.Breakdown{Latency: 3}); err == nil {
		t.Fatal("SetBound accepted a reference that does not total the bound")
	}
}

// fmtSignature is the reference for Report.Signature: the same line built
// with fmt, one formatted step at a time.
func fmtSignature(r *causal.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "finish=%d", r.Finish)
	for _, st := range r.Path {
		e := st.Event
		fmt.Fprintf(&b, " %s:P%d@%d/%s/i%d", st.Kind, e.Proc, e.Time, e.Op, e.Item)
	}
	return b.String()
}

// TestSignatureMatchesFmt requires Signature's bytes to equal the fmt
// reference on the paper cases, the scale cases at P = 1024 and a flat
// tree's hub, broadcast and reversed reduce.
func TestSignatureMatchesFmt(t *testing.T) {
	cases := append(conform.PaperCases(), conform.ScaleCases(1024)...)
	m := logp.MustNew(256, 6, 2, 4)
	flat, err := baseline.Schedule(baseline.FlatTree(m, m.P), 0)
	if err != nil {
		t.Fatal(err)
	}
	flatRed := combine.ReduceScheduleWith(baseline.FlatTree(m, m.P))
	cases = append(cases,
		conform.Case{Name: "flat-broadcast", S: flat, Origins: core.Origins(0)},
		conform.Case{Name: "flat-reduce", S: flatRed, Origins: schedule.DerivedOrigins(flatRed)},
	)
	for _, c := range cases {
		r := causal.Analyze(c.S, c.Origins)
		if len(r.Path) == 0 {
			t.Fatalf("%s: empty critical path", c.Name)
		}
		if got, want := r.Signature(), fmtSignature(r); got != want {
			t.Errorf("%s: Signature\n %s\nwant\n %s", c.Name, got, want)
		}
	}
}
