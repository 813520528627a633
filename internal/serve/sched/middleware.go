package sched

import (
	"io"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"logpopt/internal/obs"
)

// TracePID is the trace process id of the request track: every served
// request becomes a wall-clock span (tid = request id) under this pid, so a
// -tracesample'd Perfetto trace of production traffic sits beside the
// solver (pid 4) and simulator (pid 1) tracks without sharing their time
// bases.
const TracePID = 5

// inflightInfo is one live request: its row of /debug/inflight and the
// annotation slot its handler fills in as it learns what the request is
// (op, canonical key, cache outcome). The annotations are written under the
// API's in-flight lock, so /debug/inflight can say what each live request
// is computing, and the middleware reads them back to label metrics, spans
// and logs.
type inflightInfo struct {
	ID        int64  `json:"id"`
	Endpoint  string `json:"endpoint"`
	Method    string `json:"method"`
	Query     string `json:"query,omitempty"`
	Op        string `json:"op,omitempty"`
	Key       string `json:"key,omitempty"`
	AgeMicros int64  `json:"age_us"`

	a       *API
	start   time.Time
	outcome Outcome
}

func (info *inflightInfo) setOp(op string) {
	info.a.inflightMu.Lock()
	info.Op = op
	info.a.inflightMu.Unlock()
}

// setKey publishes the key before the (possibly long) solve starts, so
// /debug/inflight shows what a stuck request was computing.
func (info *inflightInfo) setKey(k Key) {
	s := k.String()
	info.a.inflightMu.Lock()
	info.Op, info.Key = k.Op, s
	info.a.inflightMu.Unlock()
}

func (info *inflightInfo) setOutcome(o Outcome) {
	info.a.inflightMu.Lock()
	info.outcome = o
	info.a.inflightMu.Unlock()
}

func (info *inflightInfo) snapshot() (op, key string, outcome Outcome) {
	info.a.inflightMu.Lock()
	defer info.a.inflightMu.Unlock()
	return info.Op, info.Key, info.outcome
}

// statusWriter records the status code and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// handlerFunc is an API handler with its request's annotation slot.
type handlerFunc func(w http.ResponseWriter, r *http.Request, info *inflightInfo)

// wrap is the instrumentation stack every endpoint flows through, outermost
// first: request id assignment, in-flight registration, the handler, then
// RED metrics (per-endpoint and per-endpoint-per-op request/error counters
// and duration histograms), a request-scoped trace span, and structured
// logging with a slow-request escalation.
func (a *API) wrap(endpoint string, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := a.nextID.Add(1)
		start := time.Now()
		startTS := a.tracer.Now()
		info := &inflightInfo{
			ID: id, Endpoint: endpoint, Method: r.Method,
			Query: r.URL.RawQuery, a: a, start: start,
		}
		a.inflightMu.Lock()
		a.inflight[id] = info
		n := len(a.inflight)
		a.inflightMu.Unlock()
		a.gInflight.Set(int64(n))

		sw := &statusWriter{ResponseWriter: w}
		h(sw, r, info)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}

		a.inflightMu.Lock()
		delete(a.inflight, id)
		n = len(a.inflight)
		a.inflightMu.Unlock()
		a.gInflight.Set(int64(n))

		dur := time.Since(start)
		us := dur.Microseconds()
		op, key, outcome := info.snapshot()

		red := func(prefix string) {
			a.reg.Counter(prefix + ".requests").Inc()
			if sw.status >= 400 {
				a.reg.Counter(prefix + ".errors").Inc()
			}
			a.reg.Histogram(prefix + ".duration.us").Observe(us)
		}
		red("servd.http." + endpoint)
		if op != "" {
			red("servd.http." + endpoint + "." + op)
		}

		if a.tracer != nil {
			args := []obs.Arg{
				obs.A("endpoint", endpoint), obs.A("status", sw.status),
			}
			if op != "" {
				args = append(args, obs.A("op", op))
			}
			if key != "" {
				args = append(args, obs.A("key", key), obs.A("cache", string(outcome)))
			}
			a.tracer.Span(TracePID, int(id), endpoint, startTS, us, args...)
		}

		attrs := []any{
			"req", id, "endpoint", endpoint, "method", r.Method,
			"path", r.URL.Path, "status", sw.status, "bytes", sw.bytes,
			"dur", dur.Round(time.Microsecond).String(),
		}
		if r.URL.RawQuery != "" {
			attrs = append(attrs, "query", r.URL.RawQuery)
		}
		if op != "" {
			attrs = append(attrs, "op", op)
		}
		if key != "" {
			attrs = append(attrs, "key", key, "cache", string(outcome))
		}
		switch {
		case a.slow > 0 && dur >= a.slow:
			a.log.Warn("slow request", append(attrs, "slow_threshold", a.slow.String())...)
			a.reg.Counter("servd.http.slow").Inc()
		case sw.status >= 500:
			a.log.Error("request failed", attrs...)
		default:
			a.log.Info("request", attrs...)
		}
	}
}

// Inflight snapshots the live requests, oldest first.
func (a *API) Inflight() []inflightInfo {
	now := time.Now()
	a.inflightMu.Lock()
	out := make([]inflightInfo, 0, len(a.inflight))
	for _, info := range a.inflight {
		row := *info
		row.AgeMicros = now.Sub(info.start).Microseconds()
		out = append(out, row)
	}
	a.inflightMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].AgeMicros != out[j].AgeMicros {
			return out[i].AgeMicros > out[j].AgeMicros
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// discardLogger is the default when no logger is configured: tests and
// embedded uses stay silent.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}
