package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"

	"logpopt/internal/gate"
)

// benchjson converts `go test -bench` output on stdin into a JSON array of
// gate.Result records on stdout. Lines that are not benchmark results are
// ignored, so the full `go test` output can be piped in unfiltered. A
// trailing "-N" on a benchmark name is taken as go test's GOMAXPROCS suffix
// only when N matches -gomaxprocs (see gate.ParseBench).
func benchjson(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("logpcheck benchjson", flag.ExitOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("gomaxprocs", runtime.GOMAXPROCS(0),
		"GOMAXPROCS the benchmark run used (the \"-N\" name suffix go test appends); defaults to this process's value, override when converting output recorded on another machine")
	fs.Parse(args) //nolint:errcheck // ExitOnError: 0 after -h, 2 on a bad flag
	results, err := gate.ParseBench(stdin, *procs)
	if err == nil {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(results)
	}
	if err != nil {
		fmt.Fprintf(stderr, "logpcheck benchjson: %v\n", err)
		return 1
	}
	return 0
}

// benchdiff compares two benchjson files and prints per-metric deltas
// under the -ns/-bytes/-allocs/-extra thresholds (gate.BenchThresholds). By
// default it only warns — it prints the regressions and exits 0, so noisy
// CI runners don't block merges; -strict exits 1 on any regression.
func benchdiff(args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("logpcheck benchdiff", flag.ExitOnError)
	fs.SetOutput(stderr)
	ns := fs.Float64("ns", gate.DefaultBench.NsPerOp,
		"allowed fractional ns/op increase (0.10 = +10%); negative disables")
	bytesOp := fs.Float64("bytes", gate.DefaultBench.BytesOp,
		"allowed fractional B/op increase; negative disables")
	allocs := fs.Float64("allocs", gate.DefaultBench.AllocsOp,
		"allowed fractional allocs/op increase (0 = exact); negative disables")
	extra := fs.String("extra", "",
		"comma-separated unit=fraction thresholds for extra metrics, e.g. 'events/sec=0.15,peak_rss_bytes=0.10'; /sec units gate on drops, others on growth")
	strict := fs.Bool("strict", false, "exit 1 when any regression is found")
	verbose := fs.Bool("v", false, "list every compared metric, not only regressions")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: logpcheck benchdiff [flags] old.json new.json\n\nflags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError: 0 after -h, 2 on a bad flag
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	old, err := gate.LoadBench(fs.Arg(0))
	var cur []gate.Result
	if err == nil {
		cur, err = gate.LoadBench(fs.Arg(1))
	}
	var extraTh map[string]float64
	if err == nil {
		extraTh, err = parseExtra(*extra)
	}
	if err != nil {
		fmt.Fprintln(stderr, "logpcheck benchdiff:", err)
		return 2
	}
	rep := gate.CompareBench(old, cur, gate.BenchThresholds{
		NsPerOp: *ns, BytesOp: *bytesOp, AllocsOp: *allocs, Extra: extraTh,
	})
	rep.Write(stdout, *verbose)
	if rep.Regressions > 0 {
		if *strict {
			return 1
		}
		fmt.Fprintln(stdout, "benchdiff: warn-only mode; rerun with -strict to fail on regressions")
	}
	return 0
}

// parseExtra turns "events/sec=0.15,peak_rss_bytes=0.10" into a threshold
// map. Units may themselves contain '/', so only the last '=' of each
// comma-separated entry splits unit from fraction.
func parseExtra(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		i := strings.LastIndex(entry, "=")
		if i <= 0 {
			return nil, fmt.Errorf("bad -extra entry %q (want unit=fraction)", entry)
		}
		v, err := strconv.ParseFloat(entry[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad -extra threshold in %q: %v", entry, err)
		}
		out[entry[:i]] = v
	}
	return out, nil
}
