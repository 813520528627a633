// Command logpconform runs the differential conformance harness: every case
// — the paper's schedule constructors plus seeded random schedules — is
// replayed on the strict and buffered simulator, the strict and buffered
// event-driven runtime, and the analytic validator, and the results are diffed
// under the backend-equivalence contract. Diverging cases are shrunk to a
// minimal reproduction and printed. Each case's replays and checks run
// concurrently on GOMAXPROCS workers; the output is the same at any width.
//
// Usage:
//
//	logpconform [-seeds N] [-start S] [-paper=false] [-logtime] [-scale 64,1024,100000] [-v]
//	logpconform -trace run.json -metrics -dumpdir conform-traces
//
// -logtime additionally diffs the two schedule constructors — the heap
// search and the search-free internal/logtime counting construction —
// structurally (event for event) over the standard machine sweep, replaying
// the agreed schedules through all five backends.
//
// -scale adds large-P broadcast and reduction cases at the given processor
// counts — the sizes where the engines' in-flight and wake queues hold the
// most and the runtime's worker pool engages — on top of the paper and
// random corpora.
//
// On divergence, the minimal shrunk case is automatically replayed once per
// backend with a flight recorder attached and the per-backend Chrome traces
// are written under -dumpdir, so the disagreement can be inspected on a
// Perfetto timeline. -trace records every backend replay of the whole run
// into one file; -metrics prints the counter/histogram snapshot to stderr;
// -metricsout writes the snapshot in Prometheus text format to a file (CI
// uploads it as an artifact when the harness finds a divergence); -serve
// exposes /metrics, /debug/pprof/, and /traces/ over HTTP while the sweep
// runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"logpopt/internal/cliutil"
	"logpopt/internal/conform"
	"logpopt/internal/obs"
)

func main() {
	seeds := flag.Int("seeds", 500, "number of random seeds to check")
	start := flag.Int64("start", 0, "first random seed")
	paper := flag.Bool("paper", true, "also check every paper schedule constructor")
	logtime := flag.Bool("logtime", false, "diff the search-free logtime constructor against the heap search over the standard machine sweep")
	scale := flag.String("scale", "", "comma-separated processor counts for large-P scale cases, e.g. 64,1024,100000 (default: off)")
	verbose := flag.Bool("v", false, "print every case as it is checked")
	traceOut := flag.String("trace", "", cliutil.TraceUsage)
	metrics := flag.Bool("metrics", false, cliutil.MetricsUsage)
	metricsOut := flag.String("metricsout", "", "write the metrics snapshot in Prometheus text format to `file` before exiting (default: off)")
	reportOut := flag.String("report", "", cliutil.ReportUsage+"; on divergence the report covers the first shrunk failing case, otherwise the canonical paper broadcast, with the sweep's case counts annotated")
	storeDir := flag.String("runstore", "", cliutil.RunstoreUsage)
	serveOn := flag.String("serve", "", cliutil.ServeUsage)
	dumpdir := flag.String("dumpdir", "conform-traces", "directory for per-backend trace dumps of shrunk diverging cases")
	flag.Parse()

	ck := conform.NewChecker()
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		ck.SetTracer(tracer)
	}
	srv, err := cliutil.StartServe("logpconform", *serveOn, tracer, *storeDir)
	if err != nil {
		fail(err)
	}
	if srv != nil {
		defer srv.Close()
	}
	checked, diverged := 0, 0
	var firstBad *conform.Case

	runCase := func(c conform.Case) {
		checked++
		diffs := ck.Check(c)
		if *verbose {
			status := "ok"
			if len(diffs) > 0 {
				status = "DIVERGED"
			}
			fmt.Printf("%-32s %d events  %s\n", c.Name, len(c.S.Events), status)
		}
		if len(diffs) == 0 {
			return
		}
		diverged++
		fmt.Printf("DIVERGENCE in %s (%d events on %v):\n", c.Name, len(c.S.Events), c.S.M)
		for _, d := range diffs {
			fmt.Printf("  %s\n", d)
		}
		min := conform.Shrink(c, ck.Diverges)
		if firstBad == nil {
			firstBad = &min
		}
		fmt.Printf("  shrunk to %d events on %v:\n", len(min.S.Events), min.S.M)
		for _, ev := range min.S.Events {
			fmt.Printf("    %+v\n", ev)
		}
		for _, d := range ck.Check(min) {
			fmt.Printf("  shrunk divergence: %s\n", d)
		}
		paths, err := conform.DumpTraces(min, *dumpdir, min.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "logpconform: trace dump failed: %v\n", err)
		}
		for _, p := range paths {
			fmt.Printf("  trace dumped: %s\n", p)
		}
	}

	if *paper {
		for _, c := range conform.PaperCases() {
			runCase(c)
		}
	}
	if *logtime {
		for _, mc := range conform.ConstructorMachines() {
			checked++
			diffs := ck.CheckConstructors(mc.M, mc.SumT)
			if *verbose {
				status := "ok"
				if len(diffs) > 0 {
					status = "DIVERGED"
				}
				fmt.Printf("constructors/%-24v %s\n", mc.M, status)
			}
			if len(diffs) > 0 {
				diverged++
				fmt.Printf("CONSTRUCTOR DIVERGENCE on %v (summation t=%d):\n", mc.M, mc.SumT)
				for _, d := range diffs {
					fmt.Printf("  %s\n", d)
				}
			}
		}
	}
	if *scale != "" {
		var ps []int
		for _, f := range strings.Split(*scale, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || p < 2 {
				fail(fmt.Errorf("bad -scale entry %q (want processor counts >= 2)", f))
			}
			ps = append(ps, p)
		}
		// Each case is built as it is checked, so one is live at a time.
		conform.EachScaleCase(ps...)(func(c conform.Case) bool {
			runCase(c)
			return true
		})
	}
	for seed := *start; seed < *start+int64(*seeds); seed++ {
		runCase(conform.Generate(seed))
	}

	if tracer != nil {
		if err := cliutil.WriteTrace("logpconform", tracer, *traceOut); err != nil {
			fail(err)
		}
	}
	if *metrics {
		fmt.Fprint(os.Stderr, obs.Default.Snapshot())
	}
	if *metricsOut != "" {
		if err := cliutil.WriteMetricsFile(*metricsOut); err != nil {
			fail(err)
		}
	}
	if *reportOut != "" || *storeDir != "" {
		// On a clean sweep the report pins the canonical paper broadcast;
		// on divergence it describes the first shrunk failing case, so the
		// CI artifact carries the reproduction's machine and violation
		// profile next to its trace dumps.
		c := conform.PaperCases()[0]
		op := "conform/" + c.Name
		if firstBad != nil {
			c, op = *firstBad, "diverged/"+firstBad.Name
		}
		r := cliutil.BuildReport("logpconform", op, c.S, c.Origins, -1, nil)
		r.Extra = map[string]any{"cases_checked": checked, "cases_diverged": diverged}
		if *reportOut != "" {
			if err := cliutil.WriteReport("logpconform", r, *reportOut); err != nil {
				fail(err)
			}
		}
		if *storeDir != "" {
			if err := cliutil.Archive("logpconform", *storeDir, r); err != nil {
				fail(err)
			}
		}
	}
	if diverged > 0 {
		fmt.Printf("%d of %d cases diverged\n", diverged, checked)
		os.Exit(1)
	}
	fmt.Printf("%d cases conform across all backends\n", checked)
}

func fail(err error) { cliutil.Fail("logpconform", err) }
