package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	logpopt "logpopt"
	"logpopt/internal/baseline"
	"logpopt/internal/combine"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/obs/report"
	"logpopt/internal/obs/runstore"
	"logpopt/internal/schedule"
	"logpopt/internal/serve/sched"
	"logpopt/internal/sim"
)

// exec drives run() in-process and returns (stdout, err).
func exec(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	return out.String(), err
}

// TestRejectsBadFlags pins the flag-validation contract: every malformed
// invocation must fail, never panic or emit a schedule. A bad machine, k or
// deadline fails with the message logpservd answers the same request with
// (sched.Canonicalize); the CLI's own flags name themselves.
func TestRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"zero P", []string{"-P", "0"}, "p must be at least 1"},
		{"negative P", []string{"-P", "-3"}, "p must be at least 1"},
		{"postal zero P", []string{"-postal", "-P", "0"}, "p must be at least 1"},
		{"zero L", []string{"-L", "0"}, "l must be at least 1"},
		{"negative L", []string{"-L", "-2"}, "l must be at least 1"},
		{"negative o", []string{"-o", "-1"}, "logp: o must be non-negative"},
		{"zero g", []string{"-g", "0"}, "logp: g must be at least 1"},
		{"unknown op", []string{"-op", "sideways"}, `unknown op "sideways"`},
		{"unknown constructor", []string{"-constructor", "logtime"}, "flag provided but not defined: -constructor"},
		{"unknown render", []string{"-render", "hologram"}, "unknown render"},
		{"tree without structure", []string{"-op", "kitem", "-P", "10", "-L", "3", "-k", "8", "-render", "tree"}, "-render tree"},
		{"dot without structure", []string{"-op", "scan", "-render", "dot"}, "-render dot"},
		{"zero tracesample", []string{"-tracesample", "0"}, "-tracesample"},
		{"negative tracesample", []string{"-tracesample", "-3"}, "-tracesample"},
		{"zero k", []string{"-op", "alltoall", "-k", "0"}, "k must be at least 1"},
		{"kitem zero k", []string{"-op", "kitem", "-P", "4", "-L", "3", "-k", "0"}, "k must be at least 1"},
		{"summation without t", []string{"-op", "summation", "-L", "6", "-o", "2", "-g", "4"}, "requires a deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec(t, tc.args...)
			if err == nil {
				t.Fatalf("args %v accepted; stdout %q", tc.args, out)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
			if out != "" {
				t.Fatalf("args %v: error case wrote output %q", tc.args, out)
			}
		})
	}
}

// TestMachineValidation covers the machine flags -P/-L/-o/-g and -postal,
// which canonicalize as a logpservd request does: each bad value is named
// in the error, the postal path validates P and L too, and an accepted
// machine is the one the schedule's header carries.
func TestMachineValidation(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantErr    string // "" means the machine must build
		wantP      int
		wantPostal bool
	}{
		{name: "valid", args: []string{"-P", "8", "-L", "6", "-o", "2", "-g", "4"}, wantP: 8},
		{name: "P=1 is legal", args: []string{"-P", "1", "-L", "1", "-o", "0", "-g", "1"}, wantP: 1},
		{name: "zero P", args: []string{"-P", "0"}, wantErr: "p must be at least 1"},
		{name: "negative P", args: []string{"-P", "-4"}, wantErr: "p must be at least 1"},
		{name: "zero L", args: []string{"-L", "0"}, wantErr: "l must be at least 1"},
		{name: "negative L", args: []string{"-L", "-6"}, wantErr: "l must be at least 1"},
		{name: "negative o", args: []string{"-o", "-1"}, wantErr: "o must be non-negative"},
		{name: "zero g", args: []string{"-g", "0"}, wantErr: "g must be at least 1"},
		{name: "postal valid", args: []string{"-postal", "-P", "10", "-L", "3"}, wantP: 10, wantPostal: true},
		{name: "postal zero P", args: []string{"-postal", "-P", "0", "-L", "3"}, wantErr: "p must be at least 1"},
		{name: "postal zero L", args: []string{"-postal", "-P", "10", "-L", "0"}, wantErr: "l must be at least 1"},
		{name: "postal ignores bad o/g", args: []string{"-postal", "-P", "10", "-L", "3", "-o", "-5", "-g", "0"}, wantP: 10, wantPostal: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec(t, tc.args...)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("accepted; stdout %d bytes", len(out))
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not say %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			s, err := schedule.ReadJSON(strings.NewReader(out))
			if err != nil {
				t.Fatal(err)
			}
			m := s.M
			if m.P != tc.wantP {
				t.Fatalf("P = %d, want %d", m.P, tc.wantP)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("built machine fails Validate: %v", err)
			}
			if tc.wantPostal && (m.O != 0 || m.G != 1) {
				t.Fatalf("postal machine has o=%d g=%d", m.O, m.G)
			}
		})
	}
}

// TestSummationOverflowFails: a deadline whose n(t) overflows int64 is an
// error naming the overflow, with nothing on stdout, not a panic.
func TestSummationOverflowFails(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("logpsched panicked: %v", r)
		}
	}()
	out, err := exec(t, "-op", "summation", "-P", "4", "-L", "6", "-o", "2", "-g", "4", "-t", "9223372036854775807")
	if err == nil || !strings.Contains(err.Error(), "overflows int64") || out != "" {
		t.Fatalf("stdout %q, err %v; want no output and an overflow error", out, err)
	}
}

// TestConstructorsEmitIdenticalSchedules pins the single-constructor
// contract: the JSON logpsched emits through the search-free construction
// is byte-identical to the same op compiled on the heap-search oracle, on
// both sides of the P = 512 line the tool once switched constructors at.
func TestConstructorsEmitIdenticalSchedules(t *testing.T) {
	for _, p := range []int{63, 600} {
		for _, op := range []string{"broadcast", "reduce", "scan", "summation", "binomial"} {
			m := logp.MustNew(p, 6, 2, 4)
			args := []string{"-op", op, "-P", strconv.Itoa(p), "-L", "6", "-o", "2", "-g", "4"}
			var deadline logp.Time
			if op == "summation" {
				deadline = 40
				args = append(args, "-t", "40")
			}
			got, err := exec(t, args...)
			if err != nil {
				t.Fatalf("%s P=%d: %v", op, p, err)
			}
			c, err := sched.Compile(m, op, 1, deadline, core.OptimalTree)
			if err != nil {
				t.Fatal(err)
			}
			var want strings.Builder
			if err := c.S.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			if got == "" || got != want.String() {
				t.Fatalf("%s P=%d: logpsched JSON (%d bytes) differs from the search oracle's (%d bytes)",
					op, p, len(got), want.Len())
			}
		}
	}
}

// TestDegenerateCLI pins the P=1 and P=2 behavior end to end: a P=1
// broadcast is a valid empty schedule, P=2 has exactly one exchange.
func TestDegenerateCLI(t *testing.T) {
	out, err := exec(t, "-op", "broadcast", "-P", "1", "-render", "table")
	if err != nil {
		t.Fatalf("P=1: %v", err)
	}
	if strings.Contains(out, "->") {
		t.Fatalf("P=1 broadcast communicates:\n%s", out)
	}
	out, err = exec(t, "-op", "broadcast", "-P", "2", "-L", "6", "-o", "2", "-g", "4", "-explain")
	if err != nil {
		t.Fatalf("P=2: %v", err)
	}
	if !strings.Contains(out, "finish 10") || !strings.Contains(out, "gap 0") {
		t.Fatalf("P=2 explain: want finish o+L+o=10 with gap 0, got:\n%s", out)
	}
}

// TestExplainGapZero is the acceptance check that the logtime-built
// broadcast meets its own bound exactly above the auto threshold.
func TestExplainGapZero(t *testing.T) {
	out, err := exec(t, "-op", "broadcast", "-P", "1000", "-explain")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "gap 0") {
		t.Fatalf("logtime-built broadcast misses its bound:\n%s", out)
	}
}

// TestRunstoreArchives: -runstore files the run in the persistent store,
// and a second identical run appends under the same key with the same
// certified outcome — the precondition for reportdiff exiting clean.
func TestRunstoreArchives(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	for i := 0; i < 2; i++ {
		if _, err := exec(t, "-op", "broadcast", "-P", "48", "-runstore", dir); err != nil {
			t.Fatal(err)
		}
	}
	s, err := runstore.Open(dir)
	if err != nil {
		t.Fatalf("store does not re-open: %v", err)
	}
	keys := s.Keys()
	if len(keys) != 1 {
		t.Fatalf("want one key, got %v", keys)
	}
	h := s.History(keys[0])
	if len(h) != 2 {
		t.Fatalf("want two archived runs, got %d", len(h))
	}
	if h[0].Finish != h[1].Finish || h[0].Violations != 0 || h[1].Violations != 0 {
		t.Fatalf("deterministic runs differ in the index: %+v", h)
	}
}

// TestReportMatchesSim is the -report acceptance check: the emitted
// artifact round-trips the strict schema reader, its finish equals what a
// direct simulated replay of the same schedule produces, and the causal
// breakdown sums to that finish.
func TestReportMatchesSim(t *testing.T) {
	for _, op := range []string{"broadcast", "reduce", "scatter", "binomial"} {
		path := filepath.Join(t.TempDir(), op+".json")
		if _, err := exec(t, "-op", op, "-P", "48", "-report", path); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		r, err := report.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: report does not round-trip: %v", op, err)
		}

		// Recompute the schedule and replay it independently.
		m := logp.MustNew(48, 6, 2, 4)
		var s *schedule.Schedule
		switch op {
		case "broadcast":
			s = core.BroadcastSchedule(m, 0)
		case "reduce":
			s = combine.ReduceSchedule(m, m.P)
		case "scatter":
			s = logpopt.ScatterSchedule(m)
		case "binomial":
			var berr error
			s, berr = baseline.Schedule(logpopt.BinomialTree(m, m.P), 0)
			if berr != nil {
				t.Fatal(berr)
			}
		}
		simRep := sim.New(m, sim.Strict).Replay(s, schedule.DerivedOrigins(s))
		if r.Finish != int64(simRep.Finish) {
			t.Fatalf("%s: report finish %d, sim finish %d", op, r.Finish, simRep.Finish)
		}
		if r.Breakdown == nil || r.Breakdown.Total() != r.Finish {
			t.Fatalf("%s: breakdown does not sum to finish: %+v", op, r.Breakdown)
		}
		if r.Violations != 0 {
			t.Fatalf("%s: clean schedule reported %d violations", op, r.Violations)
		}
		if len(r.Timeseries) == 0 {
			t.Fatalf("%s: report has no time series summaries", op)
		}
	}
}

// TestTraceBytesPinned pins the -trace file of two replays: the paper's
// Fig. 1 broadcast and a P = 1000 reduce. The simulator writes its spans
// and in-flight counters as arrivals pop, so these digests hold the
// in-flight queue's pop order fixed, ties on one arrival instant included.
func TestTraceBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-op", "broadcast", "-P", "8", "-L", "6", "-o", "2", "-g", "4"},
			"40189fa3bc14bfc8aab0b51e01123d174885756b3d81d3f80aed7f3c9cd58237"},
		{[]string{"-op", "reduce", "-P", "1000", "-L", "6", "-o", "2", "-g", "4"},
			"79c44c7a47e53c4d84b07365be002b3293f33165f65679336356d559ec9609cf"},
	} {
		path := filepath.Join(t.TempDir(), "trace.json")
		if _, err := exec(t, append(tc.args, "-trace", path)...); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.want {
			t.Errorf("%v: -trace sha256 %s, want %s", tc.args, got, tc.want)
		}
	}
}
