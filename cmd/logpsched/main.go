// Command logpsched compiles a named collective operation for a LogP
// machine into a schedule, emitted as versioned JSON on stdout (or rendered
// with -render). It makes the library's schedules consumable from other
// languages and tools.
//
// Usage:
//
//	logpsched -op broadcast -P 64 -L 6 -o 2 -g 4 > bcast.json
//	logpsched -op kitem -P 10 -L 3 -k 8 -render table
//	logpsched -op scan -P 9 -L 3 -render svg > scan.svg
//	logpsched -op broadcast -P 8 -L 6 -o 2 -g 4 -render tree   # Figure 1
//	logpsched -op broadcast -P 8 -render dot > tree.dot
//	logpsched -op summation -P 8 -L 5 -o 2 -g 4 -t 28 -render tree   # Figure 6
//	logpsched -op continuous -L 3 -P 10 -k 8 -render tree   # Figure 2's blocks
//	logpsched -op continuous -L 3 -P 42 -render dot > blocks.dot   # Figure 3
//	logpsched -op kitem -P 10 -L 3 -k 8 -trace out.json -metrics
//	logpsched -op broadcast -P 64 -runstore runs/   # archive for reportdiff
//	logpsched -op broadcast -explain
//	logpsched -op broadcast -P 100000 > big.json
//	logpsched -op linear -explain -render svg > chain.svg
//	logpsched -op broadcast -P 64 -remote http://127.0.0.1:8080 > bcast.json
//
// Renders: json (the default), gantt (activity chart), table (reception
// table) and svg (timeline) draw the schedule itself. tree and dot draw the
// structure behind it and exist only for broadcast (the optimal tree ß(P)),
// summation (the communication tree) and continuous (the blocks with their
// words, and the block transmission digraph): tree prints a headline — B(P),
// n(t), or the per-item delay — then the structure as text, dot prints the
// structure alone as GraphViz. A render the request cannot honor is rejected
// before anything is compiled or fetched.
//
// -remote turns the tool into a thin client of a running logpservd: the
// schedule is fetched from the service (which runs the identical compile
// layer behind a cache) instead of solved locally, and with -render json the
// service's bytes are emitted verbatim — byte-identical to a local solve.
// -explain, -trace, -report, and -runstore need a local solve and are
// rejected alongside -remote, as are the tree and dot renders.
//
// -explain replaces the schedule output with a causal critical-path report:
// the chain of events that determines the finish time, each with its
// binding LogP constraint and slack, the per-component breakdown
// (L/o/g/compute/origin/wait), and the gap to the operation's closed-form
// lower bound attributed to the constraint classes that ate it. Combined
// with -render svg, the SVG timeline goes to stdout with the critical path
// outlined in red and the report moves to stderr.
//
// The optimal broadcast tree behind broadcast, reduce, scan, summation, and
// the baselines' bounds is built by the search-free counting construction
// (internal/logtime) at every P; its schedules are byte-identical to the
// heap search's, which the conformance tests keep as the oracle.
//
// -trace writes a Chrome trace-event file (open in Perfetto or
// chrome://tracing) covering the solver portfolio and a simulated replay of
// the compiled schedule; -metrics prints the counter/histogram snapshot to
// stderr.
//
// Operations: broadcast, alltoall, personalized, scatter, gather, reduce,
// scan, kitem (postal only), continuous (postal only; at L=2 with P-1 = P(t)
// it falls back to Theorem 3.5's delay-(t+3) construction), summation
// (requires -t deadline), and the broadcast baselines linear, flat, binary,
// binomial.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"

	logpopt "logpopt"
	"logpopt/internal/cliutil"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs"
	"logpopt/internal/obs/causal"
	"logpopt/internal/par"
	"logpopt/internal/schedule"
	"logpopt/internal/serve/sched"
	"logpopt/internal/sim"
	"logpopt/internal/summation"
	"logpopt/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		cliutil.Fail("logpsched", err)
	}
}

// run is the whole tool behind a testable seam: parse args, compile the
// requested schedule, and write it (or its causal report) to stdout. Every
// failure returns an error instead of exiting, so tests can drive the full
// flag-validation surface in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("logpsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		op        = fs.String("op", "broadcast", "collective to compile (see doc)")
		p         = fs.Int("P", 8, "number of processors")
		l         = fs.Int64("L", 6, "latency")
		o         = fs.Int64("o", 2, "overhead")
		g         = fs.Int64("g", 4, "gap")
		postal    = fs.Bool("postal", false, "postal model (forces o=0, g=1)")
		k         = fs.Int("k", 1, "items for kitem/alltoall/continuous")
		deadline  = fs.Int64("t", 0, "deadline for -op summation (cycles)")
		render    = fs.String("render", "json", "output: json, gantt, table, svg; tree or dot (broadcast, summation, continuous only)")
		explain   = fs.Bool("explain", false, "print a causal critical-path report instead of the schedule (with -render svg: highlighted SVG on stdout, report on stderr)")
		traceOut  = fs.String("trace", "", cliutil.TraceUsage)
		sample    = fs.Int64("tracesample", 1, "with -trace: keep replay spans for a seeded 1-in-N sample of processors; rank 0, the critical path, and the engine track are always kept, and counter graphs are thinned by the same factor. 1 keeps everything")
		reportOut = fs.String("report", "", cliutil.ReportUsage)
		storeDir  = fs.String("runstore", "", cliutil.RunstoreUsage)
		metrics   = fs.Bool("metrics", false, cliutil.MetricsUsage)
		remote    = fs.String("remote", "", cliutil.RemoteUsage)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := cliutil.Machine(*p, *l, *o, *g, *postal || *op == "kitem" || *op == "continuous")
	if err != nil {
		return err
	}
	if *sample < 1 {
		return fmt.Errorf("-tracesample must be at least 1, got %d", *sample)
	}
	if !sched.KnownOp(*op) {
		return fmt.Errorf("unknown op %q (want one of %v)", *op, sched.Ops)
	}
	switch *op {
	case "kitem", "alltoall", "continuous":
		if *k < 1 {
			return fmt.Errorf("-k must be at least 1, got %d", *k)
		}
	}
	if *op == "summation" && *deadline <= 0 {
		return errors.New("summation requires -t <deadline> (e.g. -t 28 for Figure 6)")
	}
	if err := checkRender(*render, *op, *remote != ""); err != nil {
		return err
	}

	if *remote != "" {
		if *explain || *traceOut != "" || *reportOut != "" || *storeDir != "" {
			return errors.New("-remote fetches schedules only; -explain, -trace, -report, and -runstore need a local solve (or use the service's /v1/explain)")
		}
		return runRemote(*remote, *op, m, *k, logp.Time(*deadline), *render, stdout)
	}

	// The tracer sees two time bases on separate process tracks: wall-clock
	// microseconds for the solver portfolio (pid 4) and virtual LogP cycles
	// for the simulated replay (the simulator's default pid). Events stream
	// incrementally to the output file, so even million-processor replays
	// never hold the span backlog in memory.
	var tracer *obs.Tracer
	var closeTrace func() error
	if *traceOut != "" {
		var terr error
		tracer, closeTrace, terr = cliutil.StreamTrace("logpsched", *traceOut)
		if terr != nil {
			return terr
		}
		tracer.NameProcess(4, "solver portfolio (wall µs)")
		par.SetTracer(tracer, 4)
	}
	if *metrics {
		defer func() { fmt.Fprint(stderr, obs.Default.Snapshot()) }()
	}

	// The compile layer (internal/serve/sched) is the single source of truth
	// for "what schedule answers (op, machine, k, t)" — cmd/logpservd runs
	// the same code behind its cache, which is what makes -remote answers
	// diffable against local ones byte for byte.
	c, err := sched.Compile(m, *op, *k, logp.Time(*deadline), logtime.Tree)
	if err != nil {
		return err
	}
	s, bound := c.S, c.Bound

	// The causal analysis feeds three consumers — the sampler's keep set,
	// the run report's breakdown, and -explain — so it is computed at most
	// once and shared.
	var crep *causal.Report
	analyze := func() *causal.Report {
		if crep == nil {
			crep = causal.Analyze(s, schedule.DerivedOrigins(s))
		}
		return crep
	}

	if tracer != nil {
		// Replay the compiled schedule on the strict simulator purely to
		// record its flight: per-processor send/recv spans in virtual LogP
		// cycles. Origins are derived generically — each item enters at its
		// first sender at time zero — which can only make more items
		// available, never fewer, so the replay is violation-free whenever
		// the schedule is.
		if *sample > 1 {
			// Bound the trace: keep rank 0, every processor on the causal
			// critical path, the engine's violation track, and a
			// deterministic 1-in-N sample of the rest.
			keep := []int{s.M.P}
			for pr := range analyze().CriticalProcs() {
				keep = append(keep, pr)
			}
			tracer.SetSampler(sim.DefaultTracePID, obs.NewSampler(uint64(*sample), 1, keep...))
		}
		eng := sim.New(s.M, sim.Strict)
		eng.Tracer = tracer
		eng.Replay(s, schedule.DerivedOrigins(s))
		if err := closeTrace(); err != nil {
			return err
		}
		if n := tracer.Dropped(); n > 0 {
			fmt.Fprintf(stderr, "logpsched: trace sampling kept %d of %d events\n",
				tracer.Len(), tracer.Len()+int(n))
		}
	}

	if *reportOut != "" || *storeDir != "" {
		r := cliutil.BuildReport("logpsched", *op, s, schedule.DerivedOrigins(s), bound, analyze())
		r.Constructor = "logtime"
		if *reportOut != "" {
			if err := cliutil.WriteReport("logpsched", r, *reportOut); err != nil {
				return err
			}
		}
		if *storeDir != "" {
			if err := cliutil.Archive("logpsched", *storeDir, r); err != nil {
				return err
			}
		}
	}

	if *explain {
		rep := analyze()
		if err := sched.ApplyBound(rep, c, m, logtime.Tree); err != nil {
			return err
		}
		if *render == "svg" {
			fmt.Fprint(stdout, trace.SVGHighlight(s, rep.CriticalSet()))
			fmt.Fprint(stderr, rep.String())
		} else {
			fmt.Fprint(stdout, rep.String())
		}
		return nil
	}

	if *render == "tree" || *render == "dot" {
		return renderStructure(m, *op, *k, logp.Time(*deadline), s, *render, stdout)
	}
	return renderSchedule(s, *render, stdout)
}

// checkRender rejects a -render value the request cannot honor, before
// anything is compiled or fetched. tree and dot draw the structure behind
// a broadcast, summation or continuous schedule, which is rebuilt locally
// and is not part of the service's answer.
func checkRender(render, op string, remote bool) error {
	switch render {
	case "json", "gantt", "table", "svg":
		return nil
	case "tree", "dot":
		if op != "broadcast" && op != "summation" && op != "continuous" {
			return fmt.Errorf("-render %s draws the structure of broadcast, summation, or continuous; op %s has none", render, op)
		}
		if remote {
			return fmt.Errorf("-render %s rebuilds the structure locally; it is not available with -remote", render)
		}
		return nil
	}
	return fmt.Errorf("unknown render %q (want json, gantt, table, svg, tree, or dot)", render)
}

// renderStructure writes the structure behind s, the schedule compiled for
// op: the optimal broadcast tree (Figure 1), the summation communication
// tree (Figure 6), or the continuous-broadcast blocks, words and block
// digraph (Figures 2-3). tree prints a headline, then the structure; dot
// prints the structure alone as GraphViz. The structure is rebuilt here
// rather than carried in sched.Compiled, so cached answers stay schedule-only.
func renderStructure(m logp.Machine, op string, k int, deadline logp.Time, s *logpopt.Schedule, render string, stdout io.Writer) error {
	switch op {
	case "broadcast":
		tr := logtime.Tree(m, m.P)
		if render == "dot" {
			fmt.Fprint(stdout, tr.DOT("broadcast"))
			return nil
		}
		fmt.Fprintf(stdout, "%v: B(P) = %d\n\nOptimal broadcast tree (node @availability):\n", m, tr.MaxLabel())
		fmt.Fprint(stdout, tr.String())
	case "summation":
		pl, err := summation.BuildWith(m, deadline, logtime.Tree)
		if err != nil {
			return err
		}
		if render == "dot" {
			fmt.Fprint(stdout, pl.Tree.DOT("summation"))
			return nil
		}
		fmt.Fprintf(stdout, "%v: n(%d) = %d operands on %d processors\n", m, deadline, pl.N, pl.Tree.P())
		fmt.Fprint(stdout, "\nCommunication tree (reversed optimal broadcast on L+1):\n")
		fmt.Fprint(stdout, pl.Tree.String())
	case "continuous":
		inst, err := sched.ContinuousInstance(int(m.L), m.P-1)
		if err != nil {
			return err
		}
		a, err := inst.Assign()
		if err != nil {
			return err
		}
		g := logpopt.DeriveBlockDigraph(a)
		if render == "dot" {
			fmt.Fprint(stdout, g.DOT("blocks"))
			return nil
		}
		worst, err := logpopt.VerifyContinuousDelay(s, k, inst.Delay())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "postal L=%d, %d subscribers, horizon %d: per-item delay %d (worst measured %d), k=%d finishes at %d\n",
			inst.L, inst.P, inst.T, inst.Delay(), worst, k, s.LastRecv())
		fmt.Fprint(stdout, "\nblocks and words (delays):\n")
		for _, b := range inst.Blocks {
			fmt.Fprintf(stdout, "  size %-3d delay %-3d word %v\n", b.Size, b.Delay, b.Word)
		}
		fmt.Fprintf(stdout, "  receive-only delay %d\n", inst.RecvOnlyDelay)
		fmt.Fprint(stdout, "\nblock transmission digraph:\n")
		fmt.Fprint(stdout, g.String())
	}
	return nil
}

// renderSchedule writes s in the requested rendering — shared by the local
// and -remote paths so both present schedules identically. render was
// vetted by checkRender.
func renderSchedule(s *logpopt.Schedule, render string, stdout io.Writer) error {
	switch render {
	case "json":
		if err := s.WriteJSON(stdout); err != nil {
			return cliutil.WriteError("schedule JSON", "stdout", err)
		}
	case "gantt":
		fmt.Fprint(stdout, logpopt.Gantt(s))
	case "table":
		fmt.Fprint(stdout, logpopt.ReceptionTable(s))
	case "svg":
		fmt.Fprint(stdout, logpopt.TimelineSVG(s))
	}
	return nil
}

// runRemote is the thin-client mode: ask a running logpservd for the
// schedule instead of solving locally. The service runs the identical
// compile layer and serves the exact bytes its schedule.WriteJSON produced,
// so `-remote -render json` output is byte-identical to a local solve —
// which the servd smoke test diffs to prove the service is honest. Other
// renders parse the fetched schedule and render locally.
func runRemote(base, op string, m logp.Machine, k int, deadline logp.Time, render string, stdout io.Writer) error {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("-remote %q is not an absolute URL (want e.g. http://127.0.0.1:8080)", base)
	}
	q := url.Values{
		"op":     {op},
		"p":      {strconv.Itoa(m.P)},
		"l":      {strconv.FormatInt(int64(m.L), 10)},
		"o":      {strconv.FormatInt(int64(m.O), 10)},
		"g":      {strconv.FormatInt(int64(m.G), 10)},
		"format": {"schedule"},
	}
	if k != 1 {
		q.Set("k", strconv.Itoa(k))
	}
	if deadline != 0 {
		q.Set("t", strconv.FormatInt(int64(deadline), 10))
	}
	u = u.JoinPath("/v1/schedule")
	u.RawQuery = q.Encode()

	resp, err := http.Get(u.String())
	if err != nil {
		return fmt.Errorf("remote schedule: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("remote schedule: %s: %s", resp.Status, string(msg))
	}
	if render == "json" {
		// Verbatim copy: the service's bytes ARE the deliverable.
		if _, err := io.Copy(stdout, resp.Body); err != nil {
			return cliutil.WriteError("schedule JSON", "stdout", err)
		}
		return nil
	}
	s, err := schedule.ReadJSON(resp.Body)
	if err != nil {
		return fmt.Errorf("remote schedule did not parse: %w", err)
	}
	return renderSchedule(s, render, stdout)
}
