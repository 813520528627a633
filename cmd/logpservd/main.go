// Command logpservd is the always-on scheduling service: the library's
// optimal-schedule constructors behind an observable HTTP/JSON API. It
// answers /v1/schedule from a memory-bounded LRU cache with singleflight
// coalescing (N concurrent identical cold requests run the solver exactly
// once), fans /v1/batch sweeps through the shared worker pool, and explains
// any answer's critical path at /v1/explain — while exposing everything an
// operator needs to trust it: per-endpoint-per-op RED metrics on /metrics,
// request-scoped spans in a Perfetto trace, structured request logs with a
// slow-request escalation, and live introspection at /debug/inflight and
// /debug/cache.
//
// Usage:
//
//	logpservd                                  # serve on 127.0.0.1:8080
//	logpservd -addr :0 -addrfile servd.addr    # ephemeral port, address to file
//	logpservd -cache-bytes 1073741824
//	logpservd -trace servd-trace.json -tracesample 16
//	logpservd -slow 250ms
//
//	curl 'http://127.0.0.1:8080/v1/schedule?op=broadcast&p=100000'
//	curl 'http://127.0.0.1:8080/v1/explain?op=binomial&p=64'
//	curl http://127.0.0.1:8080/debug/cache
//
// The scheduling endpoints share one listener, one routing table, and one
// graceful shutdown with the telemetry surface (/metrics, /debug/pprof/,
// /traces/live, /timeseries, /dashboard): the API mounts into the same
// internal/obs/serve server every other tool uses for -serve. SIGINT or
// SIGTERM drains in-flight requests before exiting. /readyz flips to 200
// only after the warmup solves, so load balancers never route to a cold
// process.
//
// The cache budget (-cache-bytes, default 256 MiB) also bounds the heap:
// the daemon sets the runtime's soft memory limit to the budget plus a
// fixed working allowance (sched.MemoryLimit), so a nearly full cache is
// collected before the heap reaches twice its size. A GOMEMLIMIT in the
// environment wins over it, and -cache-bytes 0 (unbounded) sets no limit.
// /metrics reports the limit in effect as servd.memory.limit.bytes, and
// /timeseries and /dashboard plot it beside the live heap.
//
// Every optimal tree is built by the search-free counting construction
// (internal/logtime). A request's constructor field (auto, search, or
// logtime) is still accepted and changes nothing; any other value is a 400.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"logpopt/internal/cliutil"
	"logpopt/internal/obs"
	"logpopt/internal/obs/serve"
	"logpopt/internal/serve/sched"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stderr, stop); err != nil {
		cliutil.Fail("logpservd", err)
	}
}

// run is the whole daemon behind a testable seam: parse flags, assemble the
// service, serve until stop delivers, shut down gracefully. Tests drive it
// with their own channel instead of process signals.
func run(args []string, stderr io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("logpservd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen `address` (:0 picks a free port)")
		addrFile   = fs.String("addrfile", "", "write the bound address to `file` once listening (for scripts using -addr :0)")
		cacheBytes = fs.Int64("cache-bytes", sched.DefaultCacheBytes, "schedule-cache budget in bytes (each entry is charged its serialized schedule plus a fixed overhead): past it the least-recently-used entry is evicted, and an answer larger than the budget is served but not cached. It also sets the soft memory limit to the budget plus 64 MiB, unless GOMEMLIMIT is set (0 = unbounded cache, no limit)")
		slow       = fs.Duration("slow", 500*time.Millisecond, "log requests at or above this duration as warnings (0 disables)")
		traceOut   = fs.String("trace", "", cliutil.TraceUsage)
		sample     = fs.Int64("tracesample", 1, "with -trace: keep request spans for a seeded 1-in-N sample of requests; counter graphs thin by the same factor. 1 keeps everything")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheBytes < 0 {
		return fmt.Errorf("-cache-bytes must be non-negative, got %d", *cacheBytes)
	}
	if *sample < 1 {
		return fmt.Errorf("-tracesample must be at least 1, got %d", *sample)
	}

	// The budget bounds the heap, not only the cache: past the limit the
	// collector runs before the heap doubles. run restores the previous
	// limit on return, for the tests that call it in-process.
	if os.Getenv("GOMEMLIMIT") == "" && *cacheBytes > 0 {
		defer debug.SetMemoryLimit(debug.SetMemoryLimit(sched.MemoryLimit(*cacheBytes)))
	}
	limit := obs.Default.Gauge("servd.memory.limit.bytes")
	limit.Set(debug.SetMemoryLimit(-1))

	// Request spans stream straight to the trace file, sampled at the
	// request level, so a day of production traffic stays a bounded file.
	var tracer *obs.Tracer
	closeTrace := func() error { return nil }
	if *traceOut != "" {
		var err error
		tracer, closeTrace, err = cliutil.StreamTrace("logpservd", *traceOut)
		if err != nil {
			return err
		}
		if *sample > 1 {
			tracer.SetSampler(sched.TracePID, obs.NewSampler(uint64(*sample), 1))
		}
	}

	logger := slog.New(slog.NewTextHandler(stderr, nil))
	api := sched.NewAPI(sched.Options{
		Cache:    sched.NewCache(*cacheBytes, obs.Default),
		Registry: obs.Default,
		Tracer:   tracer,
		Log:      logger,
		Slow:     *slow,
	})

	// One server for both surfaces: the scheduling API mounts into the
	// telemetry server, so /v1/* sits beside /metrics and /debug/pprof/ and
	// everything drains through the same graceful shutdown.
	srv := serve.New(obs.Default)
	if tracer != nil {
		if err := srv.AddTracer("live", tracer); err != nil {
			return err
		}
	}
	ts := cliutil.StandardCollector()
	ts.ProbeGauge("servd.memory.limit.bytes", limit)
	srv.SetTimeseries(ts)
	srv.OnClose(ts.Start(time.Second))
	for _, rt := range api.Routes() {
		if err := srv.Mount(rt.Pattern, rt.Handler, rt.Desc); err != nil {
			return err
		}
	}

	bound, err := srv.Start(*addr)
	if err != nil {
		closeTrace() //nolint:errcheck // the listen error is the one to report
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			srv.Close()  //nolint:errcheck
			closeTrace() //nolint:errcheck
			return cliutil.WriteError("bound address", *addrFile, err)
		}
	}
	logger.Info("listening", "addr", bound, "cache_bytes", *cacheBytes)

	// Warm the solve path before declaring readiness; the warmup answers
	// also seed the cache.
	if err := warmup(api); err != nil {
		srv.Close()  //nolint:errcheck
		closeTrace() //nolint:errcheck
		return fmt.Errorf("warmup solve: %w", err)
	}
	api.SetReady(true)
	logger.Info("ready", "addr", bound)

	sig := <-stop
	logger.Info("shutting down", "signal", fmt.Sprint(sig))
	api.SetReady(false)
	if err := srv.Close(); err != nil {
		closeTrace() //nolint:errcheck
		return err
	}
	return closeTrace()
}

// warmup solves one small and one large broadcast through the cache, so the
// canonicalize, solve, and encode path is exercised (and the answers
// cached) before /readyz goes green.
func warmup(api *sched.API) error {
	for _, p := range []int{64, 4096} {
		req := sched.Request{Op: "broadcast", P: p, L: 6, O: 2, G: 4, K: 1}
		if _, err := api.Warm(req); err != nil {
			return err
		}
	}
	return nil
}
