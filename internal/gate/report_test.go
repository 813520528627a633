package gate

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/obs/causal"
	"logpopt/internal/obs/report"
	"logpopt/internal/schedule"
)

// buildReportOn assembles a fully-populated, Validate-clean report from a
// real broadcast run on m, the way the CLI tools do. boundOffset shifts
// the recorded bound below the achieved finish, giving the fixture a
// non-zero gap when a test needs fractional headroom there.
func buildReportOn(t *testing.T, m logp.Machine, boundOffset logp.Time) *report.Report {
	t.Helper()
	s := core.BroadcastSchedule(m, 0)
	crep := causal.Analyze(s, core.Origins(0))
	r := report.New("logpsched", m)
	r.Op = "broadcast"
	r.Constructor = "search"
	r.SetOutcome(crep.Finish, crep.Finish-boundOffset)
	r.SetCausal(crep)
	r.Stats = report.FromStats(schedule.ComputeStats(s, crep.Finish, nil))
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return r
}

func buildReport(t *testing.T) *report.Report {
	return buildReportOn(t, logp.MustNew(16, 6, 2, 4), 0)
}

// revalidate guards the perturbation helpers: a perturbed fixture must
// still pass the report schema, or the test would be exercising a document
// the store could never contain.
func revalidate(t *testing.T, r *report.Report) *report.Report {
	t.Helper()
	if err := r.Validate(); err != nil {
		t.Fatalf("perturbed fixture no longer valid: %v", err)
	}
	return r
}

// TestIdenticalReportsEmptyVerdict: same case, same run — no deltas at all.
func TestIdenticalReportsEmptyVerdict(t *testing.T) {
	a, b := buildReport(t), buildReport(t)
	v := CompareReports(a, b, DefaultReport)
	if !v.Empty() || v.Gated != 0 {
		t.Fatalf("identical reports produced deltas: %+v", v.Deltas)
	}
	var buf bytes.Buffer
	v.Write(&buf, false)
	if !strings.Contains(buf.String(), "identical") {
		t.Fatalf("empty verdict rendering: %q", buf.String())
	}
}

// TestEachGatedFieldGates perturbs every gated field class beyond its
// threshold (keeping the document schema-valid) and asserts the verdict
// flips, naming the field.
func TestEachGatedFieldGates(t *testing.T) {
	cases := []struct {
		name    string
		perturb func(r *report.Report)
		field   string // a gated delta whose Field contains this
	}{
		{
			// Finish drift: the run got 50% slower. Gap and the wait
			// component absorb the same cycles so the document stays
			// internally consistent — exactly what a real slower run with
			// an unchanged bound looks like.
			name: "finish",
			perturb: func(r *report.Report) {
				d := r.Finish / 2
				r.Finish += d
				r.Gap += d
				r.Breakdown.Wait += d
			},
			field: "finish",
		},
		{
			// Gap drift alone: bound improved (closed form tightened), the
			// run did not.
			name: "gap",
			perturb: func(r *report.Report) {
				r.Bound -= 4
				r.Gap += 4
			},
			field: "gap",
		},
		{
			// A breakdown component shift with the total pinned: the same
			// finish now spends its cycles differently — the causal story
			// changed even though the outcome did not.
			name: "breakdown component",
			perturb: func(r *report.Report) {
				r.Breakdown.Wait += r.Breakdown.Latency
				r.Breakdown.Latency = 0
			},
			field: "breakdown.latency",
		},
		{
			// A port-stat quantile: the busy-time tail doubled.
			name: "quantile",
			perturb: func(r *report.Report) {
				r.Stats.ProcBusy.Max *= 4
				r.Stats.ProcBusy.P99 = r.Stats.ProcBusy.Max
			},
			field: "stats.proc_busy.p99",
		},
		{
			// Violations: zero is the only acceptable count for a clean
			// case; any growth gates exactly.
			name:    "violations",
			perturb: func(r *report.Report) { r.Violations = 3 },
			field:   "violations",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := buildReport(t)
			b := buildReport(t)
			tc.perturb(b)
			revalidate(t, b)
			v := CompareReports(a, b, DefaultReport)
			if v.Gated == 0 {
				t.Fatalf("perturbing %s did not gate: %+v", tc.name, v.Deltas)
			}
			found := false
			for _, d := range v.Deltas {
				if d.Gated && strings.Contains(d.Field, tc.field) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no gated delta names %q: %+v", tc.field, v.Deltas)
			}
		})
	}
}

// TestWithinThresholdDoesNotGate: a small drift is reported but not gated.
// The fixture runs on a huge-L machine with a pre-existing gap, so a 1%
// finish drift stays under every fractional gate (2% finish, 5% gap, 10%
// breakdown) while every touched field remains non-zero on both sides.
func TestWithinThresholdDoesNotGate(t *testing.T) {
	m := logp.MustNew(16, 600, 2, 4)
	a := buildReportOn(t, m, 200)
	b := buildReportOn(t, m, 200)
	d := b.Finish / 100
	if d == 0 || float64(d)/float64(b.Gap) > 0.05 || float64(d)/float64(b.Breakdown.Latency) > 0.10 {
		t.Fatalf("fixture does not give sub-threshold headroom: finish %d gap %d latency %d",
			b.Finish, b.Gap, b.Breakdown.Latency)
	}
	b.Finish += d
	b.Gap += d
	b.Breakdown.Latency += d
	revalidate(t, b)
	v := CompareReports(a, b, DefaultReport)
	if v.Empty() {
		t.Fatal("drift below threshold vanished entirely")
	}
	if v.Gated != 0 {
		t.Fatalf("sub-threshold drift gated: %+v", v.Deltas)
	}
}

// TestIdentityMismatchGates: comparing different cases is itself a gated
// finding — op and machine must match.
func TestIdentityMismatchGates(t *testing.T) {
	a, b := buildReport(t), buildReport(t)
	b.Op = "reduce"
	b.Machine.P = 17
	v := CompareReports(a, b, DefaultReport)
	var ops, machines bool
	for _, d := range v.Deltas {
		if d.Field == "op" && d.Gated {
			ops = true
		}
		if d.Field == "machine" && d.Gated {
			machines = true
		}
	}
	if !ops || !machines {
		t.Fatalf("identity mismatch not gated: %+v", v.Deltas)
	}

	// Tool and constructor are informational: they explain provenance,
	// they do not gate.
	a, b = buildReport(t), buildReport(t)
	b.Tool = "logpbench"
	b.Constructor = "logtime"
	v = CompareReports(a, b, DefaultReport)
	if v.Gated != 0 {
		t.Fatalf("provenance-only changes gated: %+v", v.Deltas)
	}
	if len(v.Deltas) != 2 {
		t.Fatalf("provenance changes not reported: %+v", v.Deltas)
	}
}

// TestBreakdownPresenceGates: the analyzer/engine disagreement marker (a
// dropped breakdown) always gates.
func TestBreakdownPresenceGates(t *testing.T) {
	a, b := buildReport(t), buildReport(t)
	b.Breakdown = nil
	v := CompareReports(a, b, DefaultReport)
	if v.Gated == 0 {
		t.Fatalf("vanished breakdown not gated: %+v", v.Deltas)
	}
}

// TestDisabledThresholdReportsWithoutGating: a negative threshold turns a
// gate into pure reporting.
func TestDisabledThresholdReportsWithoutGating(t *testing.T) {
	th := DefaultReport
	th.Finish, th.Gap, th.Breakdown = -1, -1, -1
	a, b := buildReport(t), buildReport(t)
	d := b.Finish / 2
	b.Finish += d
	b.Gap += d
	b.Breakdown.Wait += d
	revalidate(t, b)
	v := CompareReports(a, b, th)
	if v.Empty() {
		t.Fatal("disabled gates dropped the deltas too")
	}
	if v.Gated != 0 {
		t.Fatalf("disabled thresholds still gated: %+v", v.Deltas)
	}
}

// TestVerdictJSONRoundTrips: the verdict is machine-readable — valid JSON
// with the gated count and per-delta fields intact.
func TestVerdictJSONRoundTrips(t *testing.T) {
	a, b := buildReport(t), buildReport(t)
	b.Violations = 2
	v := CompareReports(a, b, DefaultReport)
	v.A, v.B = "old.json", "new.json"
	var buf bytes.Buffer
	if err := v.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Verdict
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("verdict is not valid JSON: %v\n%s", err, buf.String())
	}
	if got.Gated != v.Gated || len(got.Deltas) != len(v.Deltas) || got.A != "old.json" {
		t.Fatalf("verdict mangled in JSON: %+v vs %+v", got, v)
	}
}

// TestExtraDeltasSorted: extra-map deltas come out in key order, whatever
// the maps' iteration order, so one comparison always renders one verdict.
func TestExtraDeltasSorted(t *testing.T) {
	a, b := buildReport(t), buildReport(t)
	a.Extra = map[string]any{"e": 1, "d": 1, "c": 1, "a": 1}
	b.Extra = map[string]any{"e": 2, "d": 2, "c": 2, "b": 1}
	want := []string{"extra.a", "extra.b", "extra.c", "extra.d", "extra.e"}
	for i := 0; i < 50; i++ {
		v := CompareReports(a, b, DefaultReport)
		var got []string
		for _, d := range v.Deltas {
			got = append(got, d.Field)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("extra deltas %v, want %v", got, want)
		}
	}
}
