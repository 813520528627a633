// External test package: the acceptance sweep builds reports through
// cliutil.BuildReport — the exact production path behind -runstore — and
// cliutil imports runstore, so the tests live outside the package to keep
// the import graph acyclic.
package runstore_test

import (
	"encoding/xml"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logpopt/internal/baseline"
	"logpopt/internal/cliutil"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/obs/causal"
	"logpopt/internal/obs/report"
	"logpopt/internal/obs/runstore"
	"logpopt/internal/schedule"
)

// minimalReport builds a small valid report by hand (no replay) for tests
// that only exercise store mechanics.
func minimalReport(tool, op string, finish int64) *report.Report {
	r := report.New(tool, logp.MustNew(8, 6, 2, 4))
	r.Op = op
	r.SetOutcome(logp.Time(finish), -1)
	return r
}

func TestPutLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := st.Put(minimalReport("logpsched", "broadcast", 22))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := st.Put(minimalReport("logpsched", "broadcast", 22))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Seq != 1 || e2.Seq != 2 || e1.Key != e2.Key {
		t.Fatalf("append sequence wrong: %+v then %+v", e1, e2)
	}
	if got := len(st.Keys()); got != 1 {
		t.Fatalf("keys: %d, want 1", got)
	}
	if h := st.History(e1.Key); len(h) != 2 || h[0].Seq != 1 || h[1].Seq != 2 {
		t.Fatalf("history: %+v", h)
	}
	if latest, ok := st.Latest(e1.Key); !ok || latest.Seq != 2 {
		t.Fatalf("latest: %+v %v", latest, ok)
	}
	r, err := st.Load(e1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Finish != 22 {
		t.Fatalf("loaded finish %d", r.Finish)
	}

	// Entry names resolve through Get, and survive a reopen.
	if !strings.Contains(e2.Name(), "@2") {
		t.Fatalf("entry name %q", e2.Name())
	}
	if _, err := st.Get(e2.Name()); err != nil {
		t.Fatalf("Get(%q): %v", e2.Name(), err)
	}
	st2, err := runstore.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st2.Len() != 2 {
		t.Fatalf("reopened store indexes %d runs, want 2", st2.Len())
	}
	if _, err := st2.Get(e1.Name()); err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
}

// TestAppendOnlyAcrossProcesses: a second Store value over the same
// directory (a later tool invocation) continues the sequence instead of
// overwriting, and never mutates existing artifacts.
func TestAppendOnlyAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	st1, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := st1.Put(minimalReport("logpsched", "scatter", 30))
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(st1.Path(e1))
	if err != nil {
		t.Fatal(err)
	}

	st2, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := st2.Put(minimalReport("logpsched", "scatter", 31))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Seq != 2 {
		t.Fatalf("second process got seq %d, want 2", e2.Seq)
	}
	after, err := os.ReadFile(st1.Path(e1))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("existing artifact mutated by a later append")
	}
}

// TestOpenStrict: a corrupt or misfiled artifact fails Open with the path.
func TestOpenStrict(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.Put(minimalReport("logpsched", "broadcast", 22))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated artifact", func(t *testing.T) {
		bad := filepath.Join(dir, e.Key.Dir(), "run-000002.json")
		data, rerr := os.ReadFile(st.Path(e))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if werr := os.WriteFile(bad, data[:len(data)/2], 0o644); werr != nil {
			t.Fatal(werr)
		}
		defer os.Remove(bad)
		if _, oerr := runstore.Open(dir); oerr == nil || !strings.Contains(oerr.Error(), "run-000002.json") {
			t.Fatalf("open over truncated artifact: %v", oerr)
		}
	})

	t.Run("misfiled artifact", func(t *testing.T) {
		wrong := filepath.Join(dir, "imposter-P9-L9-o9-g9-000000000000")
		if merr := os.MkdirAll(wrong, 0o755); merr != nil {
			t.Fatal(merr)
		}
		defer os.RemoveAll(wrong)
		data, rerr := os.ReadFile(st.Path(e))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if werr := os.WriteFile(filepath.Join(wrong, "run-000001.json"), data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		if _, oerr := runstore.Open(dir); oerr == nil || !strings.Contains(oerr.Error(), "misfiled") {
			t.Fatalf("open over misfiled artifact: %v", oerr)
		}
	})

	t.Run("invalid report refused at Put", func(t *testing.T) {
		r := minimalReport("", "broadcast", 22) // missing tool
		if _, perr := st.Put(r); perr == nil {
			t.Fatal("Put archived an invalid report")
		}
	})
}

// TestIndexMemoryBound: the on-disk archive grows without limit, the
// in-memory index does not — and evicted runs stay loadable by name.
func TestIndexMemoryBound(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = runstore.HistoryCap + 7
	var first runstore.Entry
	for i := 0; i < n; i++ {
		e, perr := st.Put(minimalReport("logpsched", "gather", 40))
		if perr != nil {
			t.Fatal(perr)
		}
		if i == 0 {
			first = e
		}
	}
	k := first.Key
	if h := st.History(k); len(h) != runstore.HistoryCap {
		t.Fatalf("index holds %d entries, want the %d-entry bound", len(h), runstore.HistoryCap)
	} else if h[0].Seq != n-runstore.HistoryCap+1 {
		t.Fatalf("bounded index kept oldest seq %d, want most recent window", h[0].Seq)
	}
	if latest, ok := st.Latest(k); !ok || latest.Seq != n {
		t.Fatalf("latest after eviction: %+v", latest)
	}
	// Evicted from the index, still on disk and loadable by name.
	if _, gerr := st.Get(first.Name()); gerr != nil {
		t.Fatalf("evicted run unreachable: %v", gerr)
	}
	files, err := os.ReadDir(filepath.Join(dir, k.Dir()))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != n {
		t.Fatalf("%d artifacts on disk, want %d", len(files), n)
	}

	// A reopen honors the same bound.
	st2, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if h := st2.History(k); len(h) != runstore.HistoryCap {
		t.Fatalf("reopened index holds %d entries", len(h))
	}
}

// TestHostileNames: slashed op names sanitize into flat directory names,
// and Get cannot be steered outside the store.
func TestHostileNames(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.Put(minimalReport("logpconform", "diverged/gen-17..burst", 50))
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(e.Key.Dir(), "/\\") {
		t.Fatalf("key dir %q contains a separator", e.Key.Dir())
	}
	if _, err := st.Get(e.Name()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "noseq", "@1", "../../etc/passwd@1", e.Key.Dir() + "@0", e.Key.Dir() + "@x"} {
		if _, gerr := st.Get(name); gerr == nil {
			t.Errorf("Get(%q) resolved", name)
		}
	}
}

// sweepMachines is the acceptance sweep: 5 x 4 = 20 distinct machines,
// Figure 1's canonical (8, 6, 2, 4) among them.
func sweepMachines() []logp.Machine {
	var ms []logp.Machine
	for _, p := range []int{2, 4, 8, 16, 32} {
		for _, l := range []int64{2, 4, 6, 8} {
			ms = append(ms, logp.MustNew(p, logp.Time(l), 2, 4))
		}
	}
	return ms
}

// TestRegimesMatchCausalAnalyzer is the sweep-level acceptance check: a
// 20-cell broadcast sweep (optimal tree plus the linear baseline per
// machine) folds into one regime cell per machine, the winning algorithm
// is the optimal broadcast everywhere, and every cell's gap equals what
// the causal analyzer reports for that machine — 0 on all paper-figure
// cells, since the optimal tree meets its own bound exactly.
func TestRegimesMatchCausalAnalyzer(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wantGap := map[report.Machine]int64{}
	for _, m := range sweepMachines() {
		bound := core.OptimalTree(m, m.P).MaxLabel()

		s := core.BroadcastSchedule(m, 0)
		r := cliutil.BuildReport("logpsched", "broadcast", s, core.Origins(0), bound, nil)
		r.Constructor = "search"
		if _, perr := st.Put(r); perr != nil {
			t.Fatal(perr)
		}
		// The independent reference: the analyzer's finish against the same
		// closed-form bound.
		crep := causal.Analyze(s, core.Origins(0))
		wantGap[runstore.KeyOf(r).Machine] = int64(crep.Finish - bound)

		// A competing algorithm on the same machine: the linear chain can
		// only tie (P=2) or lose to the optimal tree, and on a tie the
		// deterministic lexical tie-break still favors "broadcast".
		bs, berr := baseline.Schedule(baseline.LinearTree(m, m.P), 0)
		if berr != nil {
			t.Fatal(berr)
		}
		br := cliutil.BuildReport("logpsched", "linear", bs, schedule.DerivedOrigins(bs), bound, nil)
		if _, perr := st.Put(br); perr != nil {
			t.Fatal(perr)
		}
	}

	cells := st.Regimes()
	if len(cells) != 20 {
		t.Fatalf("regime table has %d cells, want 20", len(cells))
	}
	for _, c := range cells {
		if c.Best.Key.Op != "broadcast" {
			t.Errorf("cell %+v: best algorithm %q, want the optimal broadcast (finish %d vs %+v)",
				c.Machine, c.Best.Key.Op, c.Best.Finish, c.Entries)
		}
		if want := wantGap[c.Machine]; c.Best.Gap != want {
			t.Errorf("cell %+v: gap %d, causal analyzer says %d", c.Machine, c.Best.Gap, want)
		}
		if c.Best.Gap != 0 {
			t.Errorf("cell %+v: optimal broadcast misses its own bound by %d", c.Machine, c.Best.Gap)
		}
		if len(c.Entries) != 2 {
			t.Errorf("cell %+v: %d entries, want broadcast + linear", c.Machine, len(c.Entries))
		}
	}

	svg := runstore.RegimeSVG(cells)
	if got := strings.Count(svg, `data-gap="0"`); got != 20 {
		t.Fatalf("heatmap carries %d zero-gap cells, want 20", got)
	}
	if !strings.Contains(svg, `data-op="broadcast/search"`) {
		t.Fatal("heatmap cells do not name the winning algorithm")
	}
	// The SVG must be well-formed XML (the repo-wide renderer contract).
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, terr := dec.Token()
		if errors.Is(terr, io.EOF) {
			break
		}
		if terr != nil {
			t.Fatalf("regime SVG is not well-formed XML: %v", terr)
		}
	}
}
