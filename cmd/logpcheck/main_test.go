package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// check drives one logpcheck invocation in-process and returns its stdout
// and exit status.
func check(t *testing.T, stdin string, args ...string) (string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return out.String(), code
}

// writeFile writes data to name under dir and returns the path.
func writeFile(t *testing.T, dir, name, data string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDispatch: no subcommand and an unknown one are usage errors.
func TestDispatch(t *testing.T) {
	for _, args := range [][]string{{}, {"nope"}, {"-h"}} {
		if _, code := check(t, "", args...); code != 2 {
			t.Errorf("logpcheck %v exited %d, want 2", args, code)
		}
	}
}

// TestReportSubcommand: a valid report prints the one-line summary and
// exits 0; truncated, unknown-field and wrong-version documents exit 1;
// no file at all exits 2.
func TestReportSubcommand(t *testing.T) {
	dir := t.TempDir()
	good := writeReport(t, dir, "good.json", buildReport(t))
	out, code := check(t, "", "report", good)
	if want := good + ": logpsched broadcast P=16 finish 32, bound 32 (gap 0), 0 series, 0 violations\n"; code != 0 || out != want {
		t.Fatalf("report %s: exit %d, stdout %q; want 0, %q", good, code, out, want)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for name, bad := range map[string]string{
		"truncated":     doc[:len(doc)/2],
		"unknown field": strings.Replace(doc, "{", `{"bogus": 1,`, 1),
		"wrong version": strings.Replace(doc, `"version": 1`, `"version": 99`, 1),
	} {
		path := writeFile(t, dir, "bad.json", bad)
		if _, code := check(t, "", "report", good, path); code != 1 {
			t.Errorf("%s report exited %d, want 1", name, code)
		}
	}
	if _, code := check(t, "", "report"); code != 2 {
		t.Errorf("report with no files exited %d, want 2", code)
	}
}

// TestTraceSubcommand: both JSON forms a viewer loads pass; an empty event
// list or an event without a phase fails.
func TestTraceSubcommand(t *testing.T) {
	dir := t.TempDir()
	for name, want := range map[string]struct {
		doc  string
		code int
	}{
		"object form": {`{"traceEvents": [{"ph": "X", "name": "send"}, {"ph": "M"}]}`, 0},
		"array form":  {`[{"ph": "B", "name": "recv"}]`, 0},
		"no events":   {`{"traceEvents": []}`, 1},
		"no phase":    {`[{"ph": "X"}, {"name": "recv"}]`, 1},
	} {
		path := writeFile(t, dir, "trace.json", want.doc)
		out, code := check(t, "", "trace", path)
		if code != want.code {
			t.Errorf("%s: exit %d, want %d", name, code, want.code)
		}
		if want.code == 0 && !strings.HasSuffix(out, " trace events\n") {
			t.Errorf("%s: summary %q", name, out)
		}
	}
	if _, code := check(t, "", "trace"); code != 2 {
		t.Errorf("trace with no files exited %d, want 2", code)
	}
}

// TestBenchjsonTranscript: the subcommand writes the committed bytes for a
// transcript recorded with GOMAXPROCS=8.
func TestBenchjsonTranscript(t *testing.T) {
	in, err := os.ReadFile("../../internal/gate/testdata/transcript.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../internal/gate/testdata/transcript.json")
	if err != nil {
		t.Fatal(err)
	}
	out, code := check(t, string(in), "benchjson", "-gomaxprocs", "8")
	if code != 0 || out != string(want) {
		t.Fatalf("benchjson -gomaxprocs 8: exit %d\n%s\nwant\n%s", code, out, want)
	}
}

// TestReportdiffJSONEmptyStore: a store where no key has two runs still
// prints one JSON array under -json, the empty one.
func TestReportdiffJSONEmptyStore(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	archive(t, store, buildReport(t))
	out, code := check(t, "", "reportdiff", "-json", store)
	if code != 0 || out != "[]\n" {
		t.Fatalf("reportdiff -json on a one-run store: exit %d, stdout %q; want 0, \"[]\\n\"", code, out)
	}
}
