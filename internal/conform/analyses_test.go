package conform

import (
	"math/rand/v2"
	"slices"
	"testing"

	"logpopt/internal/obs"
	"logpopt/internal/obs/causal"
	"logpopt/internal/schedule"
)

// TestAnalyzeIgnoresEventOrder pins the premise Check's analysis dedupe
// rests on: a trace's critical-path signature depends only on its machine
// and its event multiset. For every executing backend's trace over
// diffCorpus, the signature of the trace, of a copy, and of a shuffled copy
// put back in the event order must agree.
func TestAnalyzeIgnoresEventOrder(t *testing.T) {
	ck := NewChecker()
	rng := rand.New(rand.NewPCG(1, 2))
	for _, c := range diffCorpus() {
		for _, b := range []Backend{ck.simStrict, ck.simBuf, ck.rtStrict, ck.rtBuf} {
			tr := b.Replay(c).Trace
			want := causal.Analyze(tr, c.Origins).Signature()
			cp := &schedule.Schedule{M: tr.M, Events: slices.Clone(tr.Events)}
			if got := causal.Analyze(cp, c.Origins).Signature(); got != want {
				t.Errorf("%s/%s: copy's signature %q, trace's %q", c.Name, b.Name(), got, want)
			}
			rng.Shuffle(len(cp.Events), func(i, j int) { cp.Events[i], cp.Events[j] = cp.Events[j], cp.Events[i] })
			cp.Sort()
			if got := causal.Analyze(cp, c.Origins).Signature(); got != want {
				t.Errorf("%s/%s: shuffled copy's signature %q, trace's %q", c.Name, b.Name(), got, want)
			}
		}
	}
}

// TestCleanCaseAnalyzesOnce requires Check to run one critical-path
// analysis per paper or scale case that is clean in both modes: its four
// executed traces agree, so the first signature serves all of them.
func TestCleanCaseAnalyzesOnce(t *testing.T) {
	oncePerCleanCase(t, mAnalyses, "analyses")
}

// TestCleanCaseDerivesOnce requires Check to build one availability table
// per paper or scale case that is clean in both modes: its five traces
// agree, so every finish recomputation, both availability checks and the
// critical-path analysis read the first table.
func TestCleanCaseDerivesOnce(t *testing.T) {
	oncePerCleanCase(t, mAvailabilities, "availability tables")
}

// TestCleanCaseIndexesOnce requires Check to build one trace index per
// paper or scale case that is clean in both modes: the availability table,
// both validations and the critical-path analysis all read it.
func TestCleanCaseIndexesOnce(t *testing.T) {
	oncePerCleanCase(t, mIndexes, "indexes")
}

// TestCleanCaseComparesTracesOnce requires Check to walk each trace of a
// paper or scale case that is clean in both modes once: each of the four
// traces after the first is compared with it on lookup, and the trace
// diffs answer every pair from the shared entry.
func TestCleanCaseComparesTracesOnce(t *testing.T) {
	perCleanCase(t, mTraceCompares, "trace comparisons", 4)
}

// oncePerCleanCase requires counter to rise by exactly one in each Check of
// a paper or scale case that is clean in both modes.
func oncePerCleanCase(t *testing.T, counter *obs.Counter, what string) {
	t.Helper()
	perCleanCase(t, counter, what, 1)
}

// perCleanCase requires counter to rise by exactly want in each Check of a
// paper or scale case that is clean in both modes.
func perCleanCase(t *testing.T, counter *obs.Counter, what string, want int64) {
	t.Helper()
	ck := NewChecker()
	clean := 0
	for _, c := range append(PaperCases(), ScaleCases(64, 1024)...) {
		before := counter.Value()
		diffs := ck.Check(c)
		n := counter.Value() - before
		if len(diffs) > 0 || !ck.simStrict.Replay(c).Clean() || !ck.simBuf.Replay(c).Clean() {
			t.Logf("%s: not clean in both modes, %d %s", c.Name, n, what)
			continue
		}
		clean++
		if n != want {
			t.Errorf("%s: clean case made %d %s, want %d", c.Name, n, what, want)
		}
	}
	if clean < 16 {
		t.Fatalf("only %d clean cases: the count went untested", clean)
	}
}

// TestCheckSortsSendsOnce requires Check to put a case's sends in the event
// order once for both simulator replays: on the scale cases, whose sends
// come in tree order, a replay on its own sorts them, and neither of
// Check's replays does.
func TestCheckSortsSendsOnce(t *testing.T) {
	sorts := obs.Default.Counter("sim.send_sorts")
	ck := NewChecker()
	for _, c := range ScaleCases(64, 1024) {
		before := sorts.Value()
		ck.simStrict.Replay(c)
		if n := sorts.Value() - before; n != 1 {
			t.Fatalf("%s: a replay on its own sorted its sends %d times, want 1", c.Name, n)
		}
		before = sorts.Value()
		if diffs := ck.Check(c); len(diffs) > 0 {
			t.Fatalf("%s: %s", c.Name, diffs[0])
		}
		if n := sorts.Value() - before; n != 0 {
			t.Errorf("%s: Check's simulator replays sorted the sends %d times, want 0", c.Name, n)
		}
	}
}
