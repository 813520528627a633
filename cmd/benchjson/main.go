// Command benchjson converts `go test -bench -benchmem` output on stdin into
// a JSON array on stdout, one object per benchmark result:
//
//	go test -bench=. -benchmem ./... | go run ./cmd/benchjson > BENCH_1.json
//
// Each object carries the benchmark name (with the -N GOMAXPROCS suffix
// stripped into its own field), iteration count, ns/op, the total measured
// wall time in seconds (iterations x ns/op), and — when -benchmem was on —
// B/op and allocs/op. Any other (value, unit) pair a benchmark reported via
// b.ReportMetric (nodes/op, memohits/op, events/sec, peak_rss_bytes, ...)
// lands verbatim in the "extra" map. Lines that are not benchmark results
// are ignored, so the full `go test` output can be piped in unfiltered.
//
// GOMAXPROCS handling: go test appends "-N" to a result's name only when it
// ran with GOMAXPROCS=N != 1, and benchmark names themselves may end in
// "-<digits>" (sub-benchmark cases), so a bare LastIndex strip misattributes
// those digits as a processor count and records parallel runs under the
// serial default. benchjson therefore only strips a trailing "-N" when N
// matches the GOMAXPROCS the `go test` run actually used — its own
// runtime.GOMAXPROCS, overridable with -gomaxprocs when converting output
// recorded elsewhere.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"logpopt/internal/benchcmp"
)

func main() {
	procs := flag.Int("gomaxprocs", runtime.GOMAXPROCS(0),
		"GOMAXPROCS the benchmark run used (the \"-N\" name suffix go test appends); defaults to this process's value, override when converting output recorded on another machine")
	flag.Parse()
	results, err := benchcmp.Parse(os.Stdin, *procs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
