// Command logpbench regenerates the paper's figures and verifies its
// theorems, printing the tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	logpbench -exp F1        # one experiment (F1..F6, T22, T31, T33, T41a, T41b, L51, CMP)
//	logpbench -all           # everything
//	logpbench -list          # list experiment ids
//	logpbench -parallel N    # cap the worker pool at N (default GOMAXPROCS);
//	                         # output is byte-identical for every N
//	logpbench -all -trace run.json -metrics
//	                         # record per-experiment wall spans and solver
//	                         # portfolio races as a Chrome/Perfetto trace,
//	                         # and print the metrics snapshot to stderr
//	logpbench -all -serve :8080
//	                         # expose live telemetry while running: /metrics
//	                         # (Prometheus text), /debug/pprof/, /traces/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"logpopt/internal/bench"
	"logpopt/internal/cliutil"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs"
	"logpopt/internal/par"
)

type experiment struct {
	id, desc string
	run      func() (string, error)
}

func experiments() []experiment {
	tbl := func(f func() *bench.Table) func() (string, error) {
		return func() (string, error) { return f().String(), nil }
	}
	return []experiment{
		{"F1", "Figure 1: optimal broadcast tree + activity, P=8 L=6 o=2 g=4", bench.Figure1},
		{"F2", "Figure 2: T9, block-cyclic words, 8-item schedule (L=3, P-1=9)", bench.Figure2},
		{"F3", "Figure 3: block transmission digraph (L=3, P-1=41)", bench.Figure3},
		{"F4", "Figure 4: size-7 block reception table (L=5, k=16)", bench.Figure4},
		{"F5", "Figure 5: 14-item broadcast, L=3, P-1=13, finish 24", bench.Figure5},
		{"F6", "Figure 6: optimal summation, t=28, P=8, L=5 g=4 o=2", bench.Figure6},
		{"T22", "Theorem 2.2: P(t) = f_t sweep", tbl(func() *bench.Table { return bench.Theorem22(10, 24) })},
		{"T31", "Theorems 3.1/3.6/3.8: k-item bounds vs schedulers", tbl(bench.KItemTable)},
		{"T31X", "Theorem 3.1 tightness by exhaustive search (tiny instances)", tbl(bench.TightnessTable)},
		{"T33", "Theorems 3.3/3.4: continuous broadcast solvability per (L,t)", tbl(func() *bench.Table { return bench.ContinuousTable(2) })},
		{"GEN", "Beyond the paper: general-P block-cyclic solvability", tbl(func() *bench.Table { return bench.GeneralPTable(60) })},
		{"T41a", "Section 4.1: all-to-all bound", tbl(bench.AllToAllTable)},
		{"T41b", "Theorem 4.1: combining broadcast", tbl(func() *bench.Table { return bench.CombineTable(5) })},
		{"L51", "Lemma 5.1: summation capacity and execution", tbl(bench.SummationTable)},
		{"EXT", "Extensions: scatter/gather/prefix scan", tbl(bench.ExtensionsTable)},
		{"CTOR", "Constructors: heap search vs logtime counting, identical trees across P", tbl(bench.ConstructionTable)},
		{"CMP", "Baselines: optimal vs binomial/binary/flat/linear, k-item, combining", func() (string, error) {
			out := bench.SingleItemTable().String() + "\n" +
				bench.KItemBaselineTable().String() + "\n" +
				bench.ReduceVsCombineTable().String()
			return out, nil
		}},
	}
}

// runAll writes every experiment's output to w under a "### id: desc"
// heading, in list order: the -all report. It stops at the first experiment
// that fails.
func runAll(w io.Writer, exps []experiment, run func(experiment) (string, error)) error {
	for _, e := range exps {
		fmt.Fprintf(w, "### %s: %s\n\n", e.id, e.desc)
		out, err := run(e)
		if err != nil {
			return fmt.Errorf("%s: %v", e.id, err)
		}
		fmt.Fprintln(w, out)
	}
	return nil
}

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id to run (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment ids")
		parallel = flag.Int("parallel", par.Limit(),
			"worker-pool width for solver portfolios and table sweeps (default GOMAXPROCS); results are identical for any value")
		traceOut  = flag.String("trace", "", cliutil.TraceUsage)
		reportOut = flag.String("report", "", cliutil.ReportUsage+"; the report covers the paper's canonical broadcast (P=8 L=6 o=2 g=4) and annotates how many experiments ran")
		storeDir  = flag.String("runstore", "", cliutil.RunstoreUsage)
		metrics   = flag.Bool("metrics", false, cliutil.MetricsUsage)
		serveOn   = flag.String("serve", "", cliutil.ServeUsage)
	)
	flag.Parse()
	par.SetLimit(*parallel)

	// pid 5 carries one wall-clock span per experiment; pid 4 carries the
	// solver portfolio races those experiments trigger.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		tracer.NameProcess(5, "experiments (wall µs)")
		tracer.NameProcess(4, "solver portfolio (wall µs)")
		par.SetTracer(tracer, 4)
	}
	srv, err := cliutil.StartServe("logpbench", *serveOn, tracer, *storeDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "logpbench: %v\n", err)
		os.Exit(1)
	}
	if srv != nil {
		defer srv.Close()
	}
	ran := 0
	runTraced := func(e experiment) (string, error) {
		ran++
		if tracer == nil {
			return e.run()
		}
		start := tracer.Now()
		out, err := e.run()
		tracer.Span(5, 0, e.id, start, tracer.Now()-start, obs.A("desc", e.desc))
		return out, err
	}
	finish := func() {
		if tracer != nil {
			if err := cliutil.WriteTrace("logpbench", tracer, *traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "logpbench: %v\n", err)
				os.Exit(1)
			}
		}
		if *reportOut != "" || *storeDir != "" {
			// The bench report is a fixed reference point: the paper's
			// canonical Figure 1 broadcast, replayed and summarized the
			// same way on every commit so artifacts diff cleanly, with the
			// sweep's extent recorded alongside.
			m := logp.MustNew(8, 6, 2, 4)
			s := logtime.BroadcastSchedule(m, 0)
			r := cliutil.BuildReport("logpbench", "broadcast", s, core.Origins(0), logtime.B(m, m.P), nil)
			r.Extra = map[string]any{"experiments": ran}
			if *reportOut != "" {
				if err := cliutil.WriteReport("logpbench", r, *reportOut); err != nil {
					fmt.Fprintf(os.Stderr, "logpbench: %v\n", err)
					os.Exit(1)
				}
			}
			if *storeDir != "" {
				if err := cliutil.Archive("logpbench", *storeDir, r); err != nil {
					fmt.Fprintf(os.Stderr, "logpbench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		if *metrics {
			fmt.Fprint(os.Stderr, obs.Default.Snapshot())
		}
	}
	exps := experiments()
	switch {
	case *list:
		for _, e := range exps {
			fmt.Printf("%-5s %s\n", e.id, e.desc)
		}
	case *all:
		if err := runAll(os.Stdout, exps, runTraced); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		finish()
	case *exp != "":
		for _, e := range exps {
			if e.id == *exp {
				out, err := runTraced(e)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
					os.Exit(1)
				}
				fmt.Println(out)
				finish()
				return
			}
		}
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
