package conform

import (
	"math/rand/v2"
	"slices"
	"testing"

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
	ck := NewChecker()
	clean := 0
	for _, c := range append(PaperCases(), ScaleCases(64, 1024)...) {
		before := mAnalyses.Value()
		diffs := ck.Check(c)
		n := mAnalyses.Value() - before
		if len(diffs) > 0 || !ck.simStrict.Replay(c).Clean() || !ck.simBuf.Replay(c).Clean() {
			t.Logf("%s: not clean in both modes, %d analyses", c.Name, n)
			continue
		}
		clean++
		if n != 1 {
			t.Errorf("%s: clean case ran %d analyses, want 1", c.Name, n)
		}
	}
	if clean < 16 {
		t.Fatalf("only %d clean cases: the count went untested", clean)
	}
}

// TestCleanCaseDerivesOnce requires Check to build one availability table
// per paper or scale case that is clean in both modes: its five traces
// agree, so every finish recomputation and both availability checks read
// the first table.
func TestCleanCaseDerivesOnce(t *testing.T) {
	ck := NewChecker()
	clean := 0
	for _, c := range append(PaperCases(), ScaleCases(64, 1024)...) {
		before := mAvailabilities.Value()
		diffs := ck.Check(c)
		n := mAvailabilities.Value() - before
		if len(diffs) > 0 || !ck.simStrict.Replay(c).Clean() || !ck.simBuf.Replay(c).Clean() {
			t.Logf("%s: not clean in both modes, %d tables", c.Name, n)
			continue
		}
		clean++
		if n != 1 {
			t.Errorf("%s: clean case built %d availability tables, want 1", c.Name, n)
		}
	}
	if clean < 16 {
		t.Fatalf("only %d clean cases: the count went untested", clean)
	}
}
