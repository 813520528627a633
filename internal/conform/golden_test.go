package conform

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/check_diffs.golden from the current Check")

// diffCorpus is the case set whose diffs are pinned in testdata: the paper
// cases, small scale cases, 200 generated seeds and the degenerate cases,
// whose divergent members carry several diffs each.
func diffCorpus() []Case {
	cases := append(PaperCases(), ScaleCases(64, 1024)...)
	for seed := range int64(200) {
		cases = append(cases, Generate(seed))
	}
	return append(cases, degenerateCases()...)
}

// renderDiffs runs Check over the corpus on one Checker and renders every
// case's diffs, in order, one per line under a header naming the case.
func renderDiffs(cases []Case) []byte {
	var buf bytes.Buffer
	ck := NewChecker()
	for i, c := range cases {
		diffs := ck.Check(c)
		fmt.Fprintf(&buf, "case %d %s: %d diffs\n", i, c.Name, len(diffs))
		for _, d := range diffs {
			fmt.Fprintf(&buf, "\t%s\n", d)
		}
	}
	return buf.Bytes()
}

// TestCheckDiffsGolden requires Check's diff strings over diffCorpus to be
// byte for byte those in testdata/check_diffs.golden, with the stages run
// one after another and concurrently. The file pins the exact wording and
// order of every diff across changes to how Check computes them; rewrite it
// with -update only when a diff's text is meant to change.
func TestCheckDiffsGolden(t *testing.T) {
	path := filepath.Join("testdata", "check_diffs.golden")
	cases := diffCorpus()
	if *update {
		if err := os.WriteFile(path, renderDiffs(cases), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Contains(want, []byte("\t")) {
		t.Fatal("golden file holds no diff: the divergent cases went missing")
	}
	for _, width := range []int{1, 2} {
		var got []byte
		atWidth(t, width, func() { got = renderDiffs(cases) })
		if !bytes.Equal(got, want) {
			t.Errorf("width %d: Check's diffs differ from %s:\n%s", width, path, firstDiffLine(got, want))
		}
	}
}

// firstDiffLine reports the first line at which got and want differ.
func firstDiffLine(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(g), len(w)) {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(g), len(w))
}
