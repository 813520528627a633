package gate

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestParseGoMaxProcsSuffix pins the GOMAXPROCS-suffix rule against a
// transcript recorded with GOMAXPROCS=8: "-8" is the framework's suffix and
// is stripped, a sub-benchmark's own "-64" or a foreign "-4" stays in the
// name with the run recorded as serial, "pkg:" lines tag the results below
// them, and malformed result lines are skipped. transcript.json holds the
// bytes cmd/benchjson -gomaxprocs 8 wrote for this transcript before the
// parser moved here, so the encoded records must match it exactly.
func TestParseGoMaxProcsSuffix(t *testing.T) {
	in, err := os.Open("testdata/transcript.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	rs, err := ParseBench(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rs); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/transcript.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("ParseBench(transcript, 8) encodes to\n%s\nwant\n%s", got.Bytes(), want)
	}

	// A run with nothing to report still encodes as a JSON array.
	rs, err = ParseBench(strings.NewReader("PASS\n"), 8)
	if err != nil || rs == nil || len(rs) != 0 {
		t.Fatalf("empty transcript: %v, %v; want a non-nil empty slice", rs, err)
	}
}

// TestDetectsRegression is the acceptance fixture: bench_new.json carries a
// synthetic 20% ns/op regression on the broadcast benchmark, which the
// default 10% threshold must flag — and a 30% threshold must not.
func TestDetectsRegression(t *testing.T) {
	old, err := LoadBench("testdata/bench_old.json")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := LoadBench("testdata/bench_new.json")
	if err != nil {
		t.Fatal(err)
	}
	rep := CompareBench(old, cur, DefaultBench)
	if rep.Regressions != 1 {
		t.Fatalf("regressions = %d, want exactly the 20%% ns/op one\n%+v",
			rep.Regressions, rep.Deltas)
	}
	var hit *BenchDelta
	for i := range rep.Deltas {
		if rep.Deltas[i].Regression {
			hit = &rep.Deltas[i]
		}
	}
	if hit.Metric != "ns/op" || !strings.Contains(hit.Key, "BroadcastSchedule") {
		t.Errorf("flagged %+v, want ns/op on BroadcastSchedule", *hit)
	}
	if hit.Frac < 0.199 || hit.Frac > 0.201 {
		t.Errorf("fraction = %v, want 0.20", hit.Frac)
	}
	if len(rep.OnlyOld) != 1 || !strings.Contains(rep.OnlyOld[0], "RemovedSoon") {
		t.Errorf("OnlyOld = %v", rep.OnlyOld)
	}
	if len(rep.OnlyNew) != 1 || !strings.Contains(rep.OnlyNew[0], "AddedSince") {
		t.Errorf("OnlyNew = %v", rep.OnlyNew)
	}

	if rep := CompareBench(old, cur, BenchThresholds{NsPerOp: 0.30, BytesOp: 0.10, AllocsOp: 0}); rep.Regressions != 0 {
		t.Errorf("30%% threshold still flags %d regression(s)", rep.Regressions)
	}

	var b strings.Builder
	rep.Write(&b, false)
	if !strings.Contains(b.String(), "REGRESSION") && rep.Regressions > 0 {
		t.Errorf("report does not mark regressions:\n%s", b.String())
	}
}

func TestCompareEdgeCases(t *testing.T) {
	a := Result{Name: "BenchmarkX", GoMaxProcs: 4, Package: "p", NsPerOp: 100}
	// allocs going 0 -> 2 with exact threshold 0 is a regression.
	b := a
	b.AllocsOp = 2
	rep := CompareBench([]Result{a}, []Result{b}, DefaultBench)
	found := false
	for _, d := range rep.Deltas {
		if d.Metric == "allocs/op" && d.Regression {
			found = true
		}
	}
	if !found {
		t.Errorf("new allocations from a zero baseline not flagged: %+v", rep.Deltas)
	}
	// Negative threshold disables the metric entirely.
	rep = CompareBench([]Result{a}, []Result{b}, BenchThresholds{NsPerOp: 0, BytesOp: 0, AllocsOp: -1})
	if rep.Regressions != 0 {
		t.Errorf("disabled metric still regressed: %+v", rep.Deltas)
	}
	// Identical files: zero regressions, metrics with 0 on both sides skipped.
	rep = CompareBench([]Result{a}, []Result{a}, DefaultBench)
	if rep.Regressions != 0 || len(rep.Deltas) != 1 {
		t.Errorf("identical compare: %+v", rep)
	}
}

// TestExtraMetricGating exercises the direction-aware thresholds for
// b.ReportMetric extras: /sec rates regress when they drop, byte counts when
// they grow, and units absent from Thresholds.Extra are reported but never
// gate.
func TestExtraMetricGating(t *testing.T) {
	old := Result{Name: "BenchmarkScale/P100000", GoMaxProcs: 4, Package: "p", NsPerOp: 100,
		Extra: map[string]float64{"events/sec": 2_000_000, "peak_rss_bytes": 1 << 30, "nodes/op": 5}}
	regressed := func(deltas []BenchDelta, unit string) bool {
		for _, d := range deltas {
			if d.Metric == unit && d.Regression {
				return true
			}
		}
		return false
	}
	th := BenchThresholds{NsPerOp: -1, BytesOp: -1, AllocsOp: -1,
		Extra: map[string]float64{"events/sec": 0.15, "peak_rss_bytes": 0.10}}

	// 20% throughput drop beyond the 15% threshold: regression.
	slow := old
	slow.Extra = map[string]float64{"events/sec": 1_600_000, "peak_rss_bytes": 1 << 30, "nodes/op": 5}
	rep := CompareBench([]Result{old}, []Result{slow}, th)
	if !regressed(rep.Deltas, "events/sec") || rep.Regressions != 1 {
		t.Errorf("20%% events/sec drop not flagged: %+v", rep.Deltas)
	}

	// 20% throughput GAIN must not trip the rate gate.
	fast := old
	fast.Extra = map[string]float64{"events/sec": 2_400_000, "peak_rss_bytes": 1 << 30, "nodes/op": 5}
	if rep := CompareBench([]Result{old}, []Result{fast}, th); rep.Regressions != 0 {
		t.Errorf("throughput gain flagged as regression: %+v", rep.Deltas)
	}

	// 25% RSS growth beyond the 10% threshold: regression (lower is better).
	big := old
	big.Extra = map[string]float64{"events/sec": 2_000_000, "peak_rss_bytes": 5 << 28, "nodes/op": 5}
	if rep := CompareBench([]Result{old}, []Result{big}, th); !regressed(rep.Deltas, "peak_rss_bytes") {
		t.Errorf("25%% peak RSS growth not flagged: %+v", rep.Deltas)
	}

	// Ungated unit may move freely but still shows up in the deltas.
	noisy := old
	noisy.Extra = map[string]float64{"events/sec": 2_000_000, "peak_rss_bytes": 1 << 30, "nodes/op": 50}
	rep = CompareBench([]Result{old}, []Result{noisy}, th)
	if rep.Regressions != 0 {
		t.Errorf("ungated nodes/op gated anyway: %+v", rep.Deltas)
	}
	seen := false
	for _, d := range rep.Deltas {
		if d.Metric == "nodes/op" {
			seen = true
		}
	}
	if !seen {
		t.Errorf("ungated extra metric missing from deltas: %+v", rep.Deltas)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadBench("testdata/absent.json"); err == nil {
		t.Error("Load of a missing file must fail")
	}
	if _, err := LoadBench("testdata/../bench.go"); err == nil {
		t.Error("Load of non-JSON must fail")
	}
}

// TestLoadRejectsDuplicateKeys: two rows with one key (the same benchmark
// matched by two -bench patterns) must fail loudly, naming the key, instead
// of Compare keeping whichever row came last.
func TestLoadRejectsDuplicateKeys(t *testing.T) {
	_, err := LoadBench("testdata/bench_dup.json")
	if err == nil {
		t.Fatal("Load accepted a file with a duplicated benchmark key")
	}
	if want := "logpopt/internal/bench.BenchmarkServdBatchSweep-1"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the duplicated key %s", err, want)
	}
}

// TestFromZeroPrintsNoPercentage: a metric growing from zero has no
// fraction, so its row gates (under a non-negative threshold) and prints
// no percentage instead of one scaled by the new value.
func TestFromZeroPrintsNoPercentage(t *testing.T) {
	a := Result{Name: "BenchmarkX", GoMaxProcs: 4, Package: "p", NsPerOp: 100}
	b := a
	b.BytesPerOp, b.AllocsOp = 4096, 5
	rep := CompareBench([]Result{a}, []Result{b}, DefaultBench)
	var out strings.Builder
	rep.Write(&out, true)
	want := "ok          p.BenchmarkX-4                                   ns/op               100 -> 100             +0.0%\n" +
		"REGRESSION  p.BenchmarkX-4                                   B/op                  0 -> 4096        \n" +
		"REGRESSION  p.BenchmarkX-4                                   allocs/op             0 -> 5           \n" +
		"3 benchmark metric(s) compared, 2 regression(s)\n"
	if out.String() != want {
		t.Fatalf("Write:\n%q\nwant\n%q", out.String(), want)
	}
}
