package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/obs/causal"
	"logpopt/internal/obs/report"
	"logpopt/internal/obs/runstore"
	"logpopt/internal/schedule"
)

// runDiff drives diffReports() in-process: (stdout, gated, err) mirrors the
// process exit contract (err -> 2, gated -> 1, else 0).
func runDiff(t *testing.T, args ...string) (string, bool, error) {
	t.Helper()
	var out, errb bytes.Buffer
	gated, err := diffReports(args, &out, &errb)
	return out.String(), gated, err
}

// buildReport assembles a deterministic, Validate-clean report the way the
// tools do, so two builds are byte-identical.
func buildReport(t *testing.T) *report.Report {
	t.Helper()
	m := logp.MustNew(16, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	crep := causal.Analyze(s, core.Origins(0))
	r := report.New("logpsched", m)
	r.Op = "broadcast"
	r.Constructor = "search"
	r.SetOutcome(crep.Finish, crep.Finish)
	r.SetCausal(crep)
	r.Stats = report.FromStats(schedule.ComputeStats(s, crep.Finish, nil))
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return r
}

// writeReport materializes r as an artifact file and returns its path.
func writeReport(t *testing.T, dir, name string, r *report.Report) string {
	t.Helper()
	if err := r.Validate(); err != nil {
		t.Fatalf("fixture no longer valid: %v", err)
	}
	path := filepath.Join(dir, name)
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// archive opens (or reopens) the store at dir and files r.
func archive(t *testing.T, dir string, r *report.Report) {
	t.Helper()
	s, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("fixture no longer valid: %v", err)
	}
	if _, err := s.Put(r); err != nil {
		t.Fatal(err)
	}
}

// TestIdenticalFilesExitClean: two runs of the same deterministic case
// produce an empty verdict and exit status 0.
func TestIdenticalFilesExitClean(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", buildReport(t))
	b := writeReport(t, dir, "b.json", buildReport(t))
	out, gated, err := runDiff(t, a, b)
	if err != nil || gated {
		t.Fatalf("identical reports gated (gated=%v err=%v):\n%s", gated, err, out)
	}
	if !strings.Contains(out, "identical") {
		t.Fatalf("empty verdict not announced:\n%s", out)
	}
}

// TestEachGatedPerturbationFlipsExit covers the acceptance criterion: a
// perturbation of any gated field class beyond its threshold flips the
// process outcome to gated, in both the file-pair and single-store modes.
func TestEachGatedPerturbationFlipsExit(t *testing.T) {
	cases := []struct {
		name    string
		perturb func(r *report.Report)
	}{
		{"finish", func(r *report.Report) {
			d := r.Finish / 2
			r.Finish += d
			r.Gap += d
			r.Breakdown.Wait += d
		}},
		{"gap", func(r *report.Report) {
			r.Bound -= 4
			r.Gap += 4
		}},
		{"breakdown component", func(r *report.Report) {
			r.Breakdown.Wait += r.Breakdown.Latency
			r.Breakdown.Latency = 0
		}},
		{"quantile", func(r *report.Report) {
			r.Stats.ProcBusy.Max *= 4
			r.Stats.ProcBusy.P99 = r.Stats.ProcBusy.Max
		}},
		{"violations", func(r *report.Report) { r.Violations = 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			a := writeReport(t, dir, "a.json", buildReport(t))
			perturbed := buildReport(t)
			tc.perturb(perturbed)
			b := writeReport(t, dir, "b.json", perturbed)
			out, gated, err := runDiff(t, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !gated {
				t.Fatalf("perturbing %s did not gate:\n%s", tc.name, out)
			}
			if !strings.Contains(out, "GATED") {
				t.Fatalf("gated verdict not rendered:\n%s", out)
			}

			// Same perturbation through a store: baseline, then the drifted
			// run, diffed latest-vs-predecessor.
			store := filepath.Join(t.TempDir(), "store")
			archive(t, store, buildReport(t))
			archive(t, store, perturbed)
			_, gated, err = runDiff(t, store)
			if err != nil {
				t.Fatal(err)
			}
			if !gated {
				t.Fatalf("store mode: perturbing %s did not gate", tc.name)
			}
		})
	}
}

// TestSingleStoreMode: identical consecutive runs are clean; a lone run has
// nothing to compare.
func TestSingleStoreMode(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	archive(t, store, buildReport(t))
	out, gated, err := runDiff(t, store)
	if err != nil || gated {
		t.Fatalf("single run gated (gated=%v err=%v):\n%s", gated, err, out)
	}
	if !strings.Contains(out, "nothing to compare") {
		t.Fatalf("lone run not announced:\n%s", out)
	}
	archive(t, store, buildReport(t))
	out, gated, err = runDiff(t, store)
	if err != nil || gated {
		t.Fatalf("identical consecutive runs gated (gated=%v err=%v):\n%s", gated, err, out)
	}
	if !strings.Contains(out, "identical") {
		t.Fatalf("clean store diff not announced:\n%s", out)
	}
}

// TestStorePairMode: shared keys diff latest-vs-latest; a key the old store
// has and the new one lost gates; a key only the new store has does not.
func TestStorePairMode(t *testing.T) {
	oldS, newS := filepath.Join(t.TempDir(), "old"), filepath.Join(t.TempDir(), "new")
	archive(t, oldS, buildReport(t))
	archive(t, newS, buildReport(t))
	out, gated, err := runDiff(t, oldS, newS)
	if err != nil || gated {
		t.Fatalf("identical stores gated (gated=%v err=%v):\n%s", gated, err, out)
	}

	// New coverage in the new store: reported, not gated.
	extra := buildReport(t)
	extra.Op = "reduce"
	extra.Finish += 4 // reduce pays a combine on the last hop; any valid shape works
	extra.Gap += 4
	extra.Breakdown.Wait += 4
	archive(t, newS, extra)
	_, gated, err = runDiff(t, oldS, newS)
	if err != nil || gated {
		t.Fatalf("extra key in new store gated (gated=%v err=%v)", gated, err)
	}

	// Lost coverage: the old store knows a key the new one lacks — gates.
	archive(t, oldS, extra)
	lost := buildReport(t)
	lost.Constructor = "logtime"
	archive(t, oldS, lost)
	out, gated, err = runDiff(t, oldS, newS)
	if err != nil {
		t.Fatal(err)
	}
	if !gated {
		t.Fatalf("lost key did not gate:\n%s", out)
	}
}

// TestThresholdFlags: a negative class threshold turns that gate off.
func TestThresholdFlags(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", buildReport(t))
	perturbed := buildReport(t)
	perturbed.Violations = 3
	b := writeReport(t, dir, "b.json", perturbed)
	_, gated, err := runDiff(t, "-violations", "-1", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if gated {
		t.Fatal("disabled violations gate still gated")
	}
	// And -v surfaces the now-informational drift.
	out, _, err := runDiff(t, "-violations", "-1", "-v", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "violations") {
		t.Fatalf("-v did not list the drift:\n%s", out)
	}
}

// TestUsageErrors: malformed invocations fail with an explanatory error
// (process exit 2), never a gate or a panic.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	f := writeReport(t, dir, "a.json", buildReport(t))
	store := filepath.Join(t.TempDir(), "store")
	archive(t, store, buildReport(t))
	cases := [][]string{
		{},
		{f, f, f},
		{f, store},
		{f},
		{filepath.Join(dir, "missing.json"), f},
	}
	for _, args := range cases {
		if _, _, err := runDiff(t, args...); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestJSONOutput: -json emits one machine-readable array of verdicts.
func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", buildReport(t))
	perturbed := buildReport(t)
	perturbed.Violations = 2
	b := writeReport(t, dir, "b.json", perturbed)
	out, gated, err := runDiff(t, "-json", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !gated {
		t.Fatal("violation drift did not gate")
	}
	var got []struct {
		A     string `json:"a"`
		B     string `json:"b"`
		Gated int    `json:"gated"`
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	if len(got) != 1 || got[0].Gated == 0 || got[0].A != a {
		t.Fatalf("verdict array mangled: %+v", got)
	}
}
