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
// Every request is canonicalized as logpservd canonicalizes it
// (sched.Canonicalize), and -render json without -explain, -trace, -report
// or -runstore encodes sched.Solve's answer for the key, as logpservd's
// cache fill does: broadcast, reduce, scan and binomial stream their events
// from the counting tables in 64 KiB chunks, never holding the tree or the
// events (a P = 10⁶ broadcast runs in a few MiB); other ops compile first.
// Every other output compiles the schedule; the bytes are the same either
// way. When stdout is a pipe,
// logpsched first asks the kernel (on Linux, best effort) to grow it to
// 1 MiB, so the encoder can run sixteen chunks ahead of its reader. A
// failed write to stdout, in any render, stops the output and exits
// non-zero.
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
	"strings"

	logpopt "logpopt"
	"logpopt/internal/cliutil"
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
	cliutil.GrowPipe(os.Stdout)
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

	req := sched.Request{Op: *op, P: *p, L: *l, O: *o, G: *g, K: *k, Deadline: *deadline}
	if *postal {
		req.O, req.G = 0, 1
	}
	key, err := sched.Canonicalize(req, "")
	if err != nil {
		return err
	}
	m := key.Machine()
	if *sample < 1 {
		return fmt.Errorf("-tracesample must be at least 1, got %d", *sample)
	}
	if err := checkRender(*render, key.Op, *remote != ""); err != nil {
		return err
	}

	if *remote != "" {
		if *explain || *traceOut != "" || *reportOut != "" || *storeDir != "" {
			return errors.New("-remote fetches schedules only; -explain, -trace, -report, and -runstore need a local solve (or use the service's /v1/explain)")
		}
		return runRemote(*remote, key, *render, stdout)
	}

	if *metrics {
		defer func() { fmt.Fprint(stderr, obs.Default.Snapshot()) }()
	}

	// A JSON render needs nothing but the bytes, so it encodes the key's
	// answer as logpservd does (see the package doc). -explain, -trace,
	// -report and -runstore analyze or replay the schedule and take the
	// compiled path below.
	if *render == "json" && !*explain && *traceOut == "" && *reportOut == "" && *storeDir == "" {
		a, err := sched.Solve(key)
		if err != nil {
			return err
		}
		if _, err := schedule.StreamJSON(stdout, a.M, a.Seq); err != nil {
			return cliutil.WriteError("schedule JSON", "stdout", err)
		}
		return nil
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

	// The rest needs the whole schedule, compiled for the same key.
	c, err := sched.Compile(m, key.Op, key.K, key.Deadline, logtime.Tree)
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
		r := cliutil.BuildReport("logpsched", key.Op, s, schedule.DerivedOrigins(s), bound, analyze())
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
		if err := sched.ApplyBound(rep, c, m); err != nil {
			return err
		}
		if *render == "svg" {
			if err := writeText(stdout, "critical-path SVG", trace.SVGHighlight(s, rep.CriticalSet())); err != nil {
				return err
			}
			fmt.Fprint(stderr, rep.String())
			return nil
		}
		return writeText(stdout, "causal report", rep.String())
	}

	if *render == "tree" || *render == "dot" {
		text, err := renderStructure(key, s, *render)
		if err != nil {
			return err
		}
		return writeText(stdout, *render+" render", text)
	}
	return renderSchedule(s, *render, stdout)
}

// writeText writes a text rendering to stdout, reporting a failed write
// (a closed pipe, a full disk) in the uniform output-error shape.
func writeText(stdout io.Writer, what, text string) error {
	if _, err := io.WriteString(stdout, text); err != nil {
		return cliutil.WriteError(what, "stdout", err)
	}
	return nil
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

// renderStructure returns the structure behind s, the schedule compiled for
// key: the optimal broadcast tree (Figure 1), the summation communication
// tree (Figure 6), or the continuous-broadcast blocks, words and block
// digraph (Figures 2-3). tree prints a headline, then the structure; dot
// prints the structure alone as GraphViz. The structure is rebuilt here
// rather than carried in sched.Compiled, so cached answers stay schedule-only.
func renderStructure(key sched.Key, s *logpopt.Schedule, render string) (string, error) {
	m := key.Machine()
	var out strings.Builder
	switch key.Op {
	case "broadcast":
		tr := logtime.Tree(m, m.P)
		if render == "dot" {
			return tr.DOT("broadcast"), nil
		}
		fmt.Fprintf(&out, "%v: B(P) = %d\n\nOptimal broadcast tree (node @availability):\n", m, tr.MaxLabel())
		out.WriteString(tr.String())
	case "summation":
		pl, err := summation.Build(m, key.Deadline)
		if err != nil {
			return "", err
		}
		if render == "dot" {
			return pl.Tree.DOT("summation"), nil
		}
		fmt.Fprintf(&out, "%v: n(%d) = %d operands on %d processors\n", m, key.Deadline, pl.N, pl.Tree.P())
		out.WriteString("\nCommunication tree (reversed optimal broadcast on L+1):\n")
		out.WriteString(pl.Tree.String())
	case "continuous":
		inst, err := sched.ContinuousInstance(int(m.L), m.P-1)
		if err != nil {
			return "", err
		}
		a, err := inst.Assign()
		if err != nil {
			return "", err
		}
		g := logpopt.DeriveBlockDigraph(a)
		if render == "dot" {
			return g.DOT("blocks"), nil
		}
		worst, err := logpopt.VerifyContinuousDelay(s, key.K, inst.Delay())
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "postal L=%d, %d subscribers, horizon %d: per-item delay %d (worst measured %d), k=%d finishes at %d\n",
			inst.L, inst.P, inst.T, inst.Delay(), worst, key.K, s.LastRecv())
		out.WriteString("\nblocks and words (delays):\n")
		for _, b := range inst.Blocks {
			fmt.Fprintf(&out, "  size %-3d delay %-3d word %v\n", b.Size, b.Delay, b.Word)
		}
		fmt.Fprintf(&out, "  receive-only delay %d\n", inst.RecvOnlyDelay)
		out.WriteString("\nblock transmission digraph:\n")
		out.WriteString(g.String())
	}
	return out.String(), nil
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
		return writeText(stdout, "gantt render", logpopt.Gantt(s))
	case "table":
		return writeText(stdout, "table render", logpopt.ReceptionTable(s))
	case "svg":
		return writeText(stdout, "svg render", logpopt.TimelineSVG(s))
	}
	return nil
}

// runRemote is the thin-client mode: ask a running logpservd for the key's
// schedule instead of solving locally. The service canonicalizes the query
// back to the same key and encodes what sched.Solve answers for it, so
// `-remote -render json` output is byte-identical to a local solve — which
// the servd smoke test diffs to prove the service is honest. Other renders
// parse the fetched schedule and render locally.
func runRemote(base string, key sched.Key, render string, stdout io.Writer) error {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("-remote %q is not an absolute URL (want e.g. http://127.0.0.1:8080)", base)
	}
	q := url.Values{
		"op":     {key.Op},
		"p":      {strconv.Itoa(key.P)},
		"l":      {strconv.FormatInt(key.L, 10)},
		"o":      {strconv.FormatInt(key.O, 10)},
		"g":      {strconv.FormatInt(key.G, 10)},
		"format": {"schedule"},
	}
	if key.K != 0 {
		q.Set("k", strconv.Itoa(key.K))
	}
	if key.Deadline != 0 {
		q.Set("t", strconv.FormatInt(key.Deadline, 10))
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
