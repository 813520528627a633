// Package cliutil keeps the logpopt command-line tools consistent: one set
// of usage strings for the flags every tool accepts (-trace, -metrics,
// -serve), one error-message shape for unwritable output paths, and
// one-call startup for the telemetry server.
package cliutil

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"logpopt/internal/logp"
	"logpopt/internal/obs"
	"logpopt/internal/obs/causal"
	"logpopt/internal/obs/report"
	"logpopt/internal/obs/runstore"
	"logpopt/internal/obs/serve"
	"logpopt/internal/obs/timeseries"
	"logpopt/internal/par"
	"logpopt/internal/schedule"
	"logpopt/internal/sim"
	"logpopt/internal/trace"
)

// Usage strings shared by every command's flag definitions, defaults
// included, so `-h` output reads the same across tools.
const (
	TraceUsage   = "write a Chrome/Perfetto trace of this run to `file` (default: no trace)"
	MetricsUsage = "print the metrics snapshot to stderr before exiting (default: off)"
	ReportUsage  = "write a versioned JSON run report to `file` (machine, finish vs bound, " +
		"causal breakdown, port stats, time series; default: no report)"
	ServeUsage = "serve live telemetry over HTTP on `address` (:0 picks a free port): " +
		"/metrics, /debug/pprof/, /traces/, /timeseries, /runs/, /compare, /regimes, /dashboard (default: off)"
	RunstoreUsage = "archive the run report into the persistent run store at `dir`, " +
		"keyed by (tool, op, constructor, machine) — the substrate for `logpcheck reportdiff` " +
		"and the /regimes view (default: off)"
	RemoteUsage = "fetch the schedule from a running logpservd at `url` " +
		"(e.g. http://127.0.0.1:8080) instead of solving locally; " +
		"-render json emits the service's bytes verbatim (default: solve locally)"
)

// Machine validates the -P/-L/-o/-g flag values every tool accepts and
// builds the machine, with flag-shaped messages (the library's Validate
// reports model constraints; this reports which *flag* is bad). The postal
// path validates too — logp.Postal itself does not, which used to let
// `-postal -P 0` reach the schedule constructors.
func Machine(p int, l, o, g int64, postal bool) (logp.Machine, error) {
	switch {
	case p < 1:
		return logp.Machine{}, fmt.Errorf("-P must be at least 1, got %d", p)
	case l < 1:
		return logp.Machine{}, fmt.Errorf("-L must be at least 1, got %d", l)
	}
	if postal {
		return logp.Postal(p, logp.Time(l)), nil
	}
	switch {
	case o < 0:
		return logp.Machine{}, fmt.Errorf("-o must be non-negative, got %d", o)
	case g < 1:
		return logp.Machine{}, fmt.Errorf("-g must be at least 1, got %d", g)
	}
	return logp.New(p, logp.Time(l), logp.Time(o), logp.Time(g))
}

// Fail prints "<cmd>: <err>" to stderr and exits 1 — the uniform fatal-error
// shape of every tool.
func Fail(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(1)
}

// WriteError wraps an output-path failure so every tool reports unwritable
// paths identically: "cannot write <what> to <path>: <cause>".
func WriteError(what, path string, err error) error {
	return fmt.Errorf("cannot write %s to %s: %w", what, path, err)
}

// WriteTrace writes t to path and confirms on stderr, with the uniform
// error shape on failure.
func WriteTrace(cmd string, t *obs.Tracer, path string) error {
	if err := t.WriteFile(path); err != nil {
		return WriteError("trace", path, err)
	}
	fmt.Fprintf(os.Stderr, "%s: trace written to %s (%d events)\n", cmd, path, t.Len())
	return nil
}

// StreamTrace opens path and returns a tracer that streams every event
// straight to it through a bounded trace.Emitter, so tools tracing huge runs
// (P ~ 10^6 replays) never hold the span backlog in memory. The returned
// close function finalizes the JSON document, reports the uniform
// confirmation line on stderr, and must be called exactly once.
func StreamTrace(cmd, path string) (*obs.Tracer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, WriteError("trace", path, err)
	}
	w := bufio.NewWriter(f)
	em := trace.NewEmitter(w, 0)
	t := obs.NewTracer()
	t.StreamTo(em)
	closer := func() error {
		err := em.Close()
		if err == nil {
			err = t.StreamErr()
		}
		if err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return WriteError("trace", path, err)
		}
		fmt.Fprintf(os.Stderr, "%s: trace streamed to %s (%d events)\n", cmd, path, t.Len())
		return nil
	}
	return t, closer, nil
}

// WriteMetricsFile writes the default registry's Prometheus exposition to
// path (the -metricsout snapshot CI uploads as an artifact).
func WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return WriteError("metrics snapshot", path, err)
	}
	werr := obs.Default.WritePrometheus(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return WriteError("metrics snapshot", path, werr)
	}
	return nil
}

// BuildReport assembles the standard run report every tool emits for
// -report: it replays s on the strict simulator with a time-series
// collector attached (windowed to ~256 samples however long the run is),
// so the report's finish and violation count certify what the engine
// actually executed, then attaches the causal breakdown, condensed port
// statistics, and the series summaries. bound is the operation's
// closed-form lower bound (-1: none known). crep may carry a pre-computed
// causal analysis; pass nil to have BuildReport run it.
func BuildReport(tool, op string, s *schedule.Schedule, origins map[int]schedule.Origin,
	bound logp.Time, crep *causal.Report) *report.Report {
	if crep == nil {
		crep = causal.Analyze(s, origins)
	}
	ts := timeseries.New(0)
	if w := int64(crep.Finish) / 256; w > 1 {
		ts.SetWindow(w)
	}
	eng := sim.New(s.M, sim.Strict)
	eng.TS = ts
	simRep := eng.Replay(s, origins)
	ts.Sample(int64(eng.Now()))

	r := report.New(tool, s.M)
	r.Op = op
	r.SetOutcome(simRep.Finish, bound)
	r.SetCausal(crep)
	if r.Breakdown.Total() != r.Finish {
		// The analyzer and the engine disagree on the finish — possible for
		// a diverging conformance case. The report certifies the engine's
		// run, so the breakdown (whose components must sum to the finish)
		// is omitted rather than attached inconsistently.
		r.Breakdown = nil
	}
	r.Stats = report.FromStats(schedule.ComputeStats(eng.Executed(), simRep.Finish, nil))
	r.Violations = len(simRep.Violations)
	r.SetTimeseries(ts)
	return r
}

// WriteReport validates r and writes it to path with the uniform error
// shape and confirmation line. Validation before writing means a tool can
// never leave a malformed artifact behind: a report that fails its own
// schema is a bug, reported as one.
func WriteReport(cmd string, r *report.Report, path string) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("%s: internal error building run report: %w", cmd, err)
	}
	if err := r.WriteFile(path); err != nil {
		return WriteError("run report", path, err)
	}
	fmt.Fprintf(os.Stderr, "%s: run report written to %s\n", cmd, path)
	return nil
}

// Archive appends r to the run store at dir (creating it on first use) and
// confirms the entry name on stderr, so every tool's -runstore flag behaves
// identically. The store validates before filing, so a report that fails its
// own schema never lands in the archive.
func Archive(cmd, dir string, r *report.Report) error {
	s, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	e, err := s.Put(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: run report archived as %s in %s\n", cmd, e.Name(), dir)
	return nil
}

// serveSampleInterval is the wall-clock cadence of the collector StartServe
// attaches for /timeseries and /dashboard.
const serveSampleInterval = time.Second

// StandardCollector builds the wall-clock collector StartServe serves:
// process RSS and goroutine count, worker-pool occupancy, and the
// process-wide counters that move during long solves and sweeps. The
// returned collector has probes registered but no sampler running; callers
// drive it with Start or attach it to an engine.
func StandardCollector() *timeseries.Collector {
	ts := timeseries.New(0)
	ts.ProbeProcess()
	ts.Probe("par.active", par.Active)
	for _, name := range []string{
		"sim.events.processed", "sim.replays", "sim.sends", "sim.violations",
		"par.portfolio.races", "par.portfolio.attempts",
		"logtime.builder.hits", "logtime.builder.misses",
	} {
		ts.ProbeCounter(name, obs.Default.Counter(name))
	}
	return ts
}

// StartServe starts the telemetry server over the default metrics registry
// when addr is non-empty, announcing the bound address on stderr. A non-nil
// tracer is exposed live at /traces/live; a non-empty storeDir opens (or
// creates) the run store there and attaches it, so /runs/, /compare, and
// /regimes cover the archive a tool's -runstore flag writes to. A standard
// wall-clock collector (process RSS, goroutines, pool occupancy, hot
// registry counters) feeds /timeseries and /dashboard, sampling once a
// second until the server closes. The caller owns the returned server (nil
// when addr is empty) and should Close it on shutdown.
func StartServe(cmd, addr string, tracer *obs.Tracer, storeDir string) (*serve.Server, error) {
	if addr == "" {
		return nil, nil
	}
	srv := serve.New(nil)
	if tracer != nil {
		if err := srv.AddTracer("live", tracer); err != nil {
			return nil, err
		}
	}
	if storeDir != "" {
		st, err := runstore.Open(storeDir)
		if err != nil {
			return nil, err
		}
		srv.SetStore(st)
	}
	ts := StandardCollector()
	srv.SetTimeseries(ts)
	srv.OnClose(ts.Start(serveSampleInterval))
	bound, err := srv.Start(addr)
	if err != nil {
		srv.Close()
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: telemetry at http://%s/ (/metrics, /debug/pprof/, /traces/, /timeseries, /runs/, /dashboard)\n", cmd, bound)
	return srv, nil
}
