// Command logpcheck holds the checks behind the repository's make gates,
// one subcommand each:
//
//	logpcheck benchjson [-gomaxprocs N] < go-test-bench.txt > results.json
//	logpcheck benchdiff [-ns 0.10] [-bytes 0.10] [-allocs 0] [-extra unit=frac,...] [-strict] [-v] old.json new.json
//	logpcheck report run.json [more.json ...]
//	logpcheck reportdiff [thresholds] [-v] [-json] old.json new.json | storeA/ storeB/ | store/
//	logpcheck trace out.json [more.json ...]
//	logpcheck servd -bin ./logpservd [-sched ./logpsched] [-n 32]
//	logpcheck rss -- command [args ...]
//
// benchjson and benchdiff build and gate BENCH_*.json (`make bench-json`,
// `make bench-gate`); report and trace validate the -report and -trace
// artifacts (`make report-smoke`, `make trace-smoke`); reportdiff gates on
// drift between run reports (`make report-diff-smoke`); servd boots a built
// logpservd end to end (`make servd-smoke`); rss runs one command and
// prints its wall time and peak RSS (`make conform-rss`). Every comparison
// gates through internal/gate. Exit status: 0 pass, 1 a check failed or a gate tripped,
// 2 a usage error or, for benchdiff and reportdiff, an unreadable input.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// commands maps each subcommand to its run function, which takes the
// arguments after the subcommand name and returns the exit status.
var commands = map[string]func(args []string, stdin io.Reader, stdout, stderr io.Writer) int{
	"benchjson":  benchjson,
	"benchdiff":  benchdiff,
	"report":     reportCheck,
	"reportdiff": reportdiff,
	"trace":      traceCheck,
	"servd":      servd,
	"rss":        rss,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 && commands[args[0]] != nil {
		return commands[args[0]](args[1:], stdin, stdout, stderr)
	}
	fmt.Fprintln(stderr, "usage: logpcheck benchjson|benchdiff|report|reportdiff|trace|servd|rss [flags] [args]")
	return 2
}

// eachFile runs check on every named file, printing its one-line summary,
// and stops at the first failure (exit 1). No files is a usage error.
func eachFile(name string, args []string, stdout, stderr io.Writer, check func(path string) (string, error)) int {
	if len(args) == 0 {
		fmt.Fprintf(stderr, "usage: logpcheck %s file.json [file.json ...]\n", name)
		return 2
	}
	for _, path := range args {
		summary, err := check(path)
		if err != nil {
			fmt.Fprintf(stderr, "logpcheck %s: %s: %v\n", name, path, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: %s\n", path, summary)
	}
	return 0
}

// traceCheck validates Chrome trace-event JSON files: each must parse and
// hold at least one event with a phase — proof that the -trace flags emit
// something a trace viewer will load.
func traceCheck(args []string, _ io.Reader, stdout, stderr io.Writer) int {
	return eachFile("trace", args, stdout, stderr, func(path string) (string, error) {
		n, err := countTraceEvents(path)
		return fmt.Sprintf("%d trace events", n), err
	})
}

// countTraceEvents parses one trace file and returns its event count. Both
// JSON forms the viewers accept are allowed: the object form
// {"traceEvents": [...]} and the bare array form [...].
func countTraceEvents(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		var arr []json.RawMessage
		if err2 := json.Unmarshal(raw, &arr); err2 != nil {
			return 0, fmt.Errorf("not valid trace JSON: %v", err)
		}
		doc.TraceEvents = arr
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("no trace events")
	}
	for i, ev := range doc.TraceEvents {
		var e struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal(ev, &e); err != nil {
			return 0, fmt.Errorf("event %d malformed: %v", i, err)
		}
		if e.Ph == "" {
			return 0, fmt.Errorf("event %d has no phase", i)
		}
	}
	return len(doc.TraceEvents), nil
}
