// Package serve exposes the process's observability surface over HTTP: the
// metrics registry in Prometheus text format at /metrics, the Go runtime
// profiles at /debug/pprof/, completed Chrome-trace JSON documents at
// /traces/, the time-resolved series of an attached collector at
// /timeseries, validated run reports at /runs/, and a zero-dependency live
// dashboard at /dashboard. With a run store attached (SetStore), archived
// runs join /runs/, any two runs diff at /compare?a=&b=, and /regimes
// renders the store's regime map. The CLIs mount it behind a -serve :addr
// flag so a long bench or conformance sweep can be inspected while it runs.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"logpopt/internal/obs"
	"logpopt/internal/obs/report"
	"logpopt/internal/obs/runstore"
	"logpopt/internal/obs/timeseries"
)

// closeGrace is how long Close waits for in-flight requests to finish
// before hard-closing their connections.
const closeGrace = 2 * time.Second

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a connection that never finishes them (slowloris) is closed
// instead of holding a goroutine forever. There is deliberately no write
// timeout: full schedule bodies at large P legitimately stream for a while.
const readHeaderTimeout = 10 * time.Second

// Server is an HTTP front end over a metrics registry, a set of named trace
// documents, run reports, and an optional time-series collector. The zero
// value is not usable; call New.
type Server struct {
	reg *obs.Registry

	mu      sync.Mutex
	traces  map[string]func() ([]byte, error)
	runs    map[string][]byte
	store   *runstore.Store
	ts      *timeseries.Collector
	mounts  []mount
	closers []func()
	ln      net.Listener
	srv     *http.Server

	headerTimeout time.Duration // readHeaderTimeout; tests shorten it
}

// mount is an externally supplied handler merged into the routing table,
// with the one-line description the index page shows for it.
type mount struct {
	pattern string
	desc    string
	handler http.Handler
}

// New returns a server exposing reg. A nil reg serves the process-wide
// obs.Default registry.
func New(reg *obs.Registry) *Server {
	if reg == nil {
		reg = obs.Default
	}
	return &Server{
		reg:    reg,
		traces: map[string]func() ([]byte, error){},
		runs:   map[string][]byte{},

		headerTimeout: readHeaderTimeout,
	}
}

// checkName vets a registry key before it becomes a URL path segment.
// Names arrive from flags and case generators, so hostile or merely
// accident-prone values (separators, dot-dot, control bytes) are rejected
// at registration instead of being served as confusing or spoofable paths.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: empty name")
	}
	if len(name) > 128 {
		return fmt.Errorf("serve: name longer than 128 bytes")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '/' || c == '\\' || c < 0x20 || c == 0x7f {
			return fmt.Errorf("serve: name %q contains a path separator or control character", name)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("serve: name %q is a relative path", name)
	}
	return nil
}

// AddTrace registers a completed trace document under /traces/<name>. The
// bytes are served verbatim with a JSON content type.
func (s *Server) AddTrace(name string, data []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	s.mu.Lock()
	s.traces[name] = func() ([]byte, error) { return data, nil }
	s.mu.Unlock()
	return nil
}

// AddTracer registers a live tracer under /traces/<name>; each request
// renders the events recorded so far, so a trace can be pulled mid-run.
func (s *Server) AddTracer(name string, t *obs.Tracer) error {
	if err := checkName(name); err != nil {
		return err
	}
	s.mu.Lock()
	s.traces[name] = func() ([]byte, error) {
		var b bytes.Buffer
		if err := t.WriteJSON(&b); err != nil {
			return nil, err
		}
		return b.Bytes(), nil
	}
	s.mu.Unlock()
	return nil
}

// AddReport validates r and registers it under /runs/<name>. Invalid
// reports are rejected — the server only ever lists artifacts a consumer
// can trust.
func (s *Server) AddReport(name string, r *report.Report) error {
	if err := checkName(name); err != nil {
		return err
	}
	if err := r.Validate(); err != nil {
		return err
	}
	var b bytes.Buffer
	if err := r.Write(&b); err != nil {
		return err
	}
	s.mu.Lock()
	s.runs[name] = b.Bytes()
	s.mu.Unlock()
	return nil
}

// SetTimeseries attaches the collector served at /timeseries and plotted by
// /dashboard. Pass nil to detach.
func (s *Server) SetTimeseries(c *timeseries.Collector) {
	s.mu.Lock()
	s.ts = c
	s.mu.Unlock()
}

// OnClose registers fn to run when the server shuts down (before the
// listener closes), e.g. to stop a wall-clock sampling goroutine.
func (s *Server) OnClose(fn func()) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	s.closers = append(s.closers, fn)
	s.mu.Unlock()
}

// Mount merges an externally supplied handler into the routing table under
// pattern (an http.ServeMux pattern, e.g. "/v1/schedule"), listing it on the
// index page with desc. cmd/logpservd mounts its API this way so the
// scheduling endpoints and the telemetry endpoints share one listener, one
// routing table, and one graceful shutdown. Mount must be called before
// Handler or Start; mounting a pattern twice, or one of the server's own
// patterns, returns an error.
func (s *Server) Mount(pattern string, h http.Handler, desc string) error {
	if pattern == "" || pattern[0] != '/' {
		return fmt.Errorf("serve: mount pattern %q must start with /", pattern)
	}
	if h == nil {
		return fmt.Errorf("serve: nil handler for %s", pattern)
	}
	reserved := []string{
		"/", "/metrics", "/traces/", "/timeseries", "/runs/",
		"/compare", "/regimes", "/dashboard", "/debug/pprof/",
	}
	for _, r := range reserved {
		if pattern == r {
			return fmt.Errorf("serve: pattern %s is reserved", pattern)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.mounts {
		if m.pattern == pattern {
			return fmt.Errorf("serve: pattern %s already mounted", pattern)
		}
	}
	s.mounts = append(s.mounts, mount{pattern: pattern, desc: desc, handler: h})
	return nil
}

// nosniff stamps X-Content-Type-Options on every response. Several handlers
// reflect query-derived strings (compare errors, run names), so the whole
// surface opts out of MIME sniffing rather than auditing each write site.
func nosniff(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Content-Type-Options", "nosniff")
		h.ServeHTTP(w, r)
	})
}

// Handler returns the routing table. It is also what Start serves.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.index)
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/traces/", s.trace)
	mux.HandleFunc("/timeseries", s.timeseries)
	mux.HandleFunc("/runs/", s.run)
	mux.HandleFunc("/compare", s.compare)
	mux.HandleFunc("/regimes", s.regimes)
	mux.HandleFunc("/dashboard", s.dashboard)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mu.Lock()
	for _, m := range s.mounts {
		mux.Handle(m.pattern, m.handler)
	}
	s.mu.Unlock()
	return nosniff(mux)
}

// Start listens on addr (":0" picks a free port) and serves in a background
// goroutine. It returns the bound address, e.g. "127.0.0.1:43321".
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry server: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: s.headerTimeout}
	s.mu.Lock()
	s.ln, s.srv = ln, srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close.
	return ln.Addr().String(), nil
}

// Close stops the listener started by Start, letting in-flight requests
// finish for up to closeGrace before hard-closing their connections. Safe
// to call without Start, and idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	closers := s.closers
	s.srv, s.ln, s.closers = nil, nil, nil
	s.mu.Unlock()
	for _, fn := range closers {
		fn()
	}
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// A handler outlived the grace period; sever its connection.
		return srv.Close()
	}
	return nil
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "logpopt telemetry\n\n")
	fmt.Fprintf(w, "/metrics       metrics registry, Prometheus text format\n")
	fmt.Fprintf(w, "/debug/pprof/  Go runtime profiles\n")
	fmt.Fprintf(w, "/traces/       completed trace documents (Chrome trace JSON)\n")
	fmt.Fprintf(w, "/timeseries    time-resolved series of the attached collector (JSON)\n")
	fmt.Fprintf(w, "/runs/         validated run reports (JSON artifacts)\n")
	fmt.Fprintf(w, "/compare       diff two runs: /compare?a=<run>&b=<run> (names from /runs/)\n")
	fmt.Fprintf(w, "/regimes       regime map and per-key history of the attached run store\n")
	fmt.Fprintf(w, "/dashboard     live sparkline dashboard over /timeseries\n")
	s.mu.Lock()
	mounts := make([]mount, len(s.mounts))
	copy(mounts, s.mounts)
	s.mu.Unlock()
	if len(mounts) > 0 {
		sort.Slice(mounts, func(i, j int) bool { return mounts[i].pattern < mounts[j].pattern })
		fmt.Fprintf(w, "\nmounted:\n")
		for _, m := range mounts {
			fmt.Fprintf(w, "%-14s %s\n", m.pattern, m.desc)
		}
	}
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w) //nolint:errcheck // client disconnects only
}

func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Path[len("/traces/"):]
	if name == "" {
		s.mu.Lock()
		names := make([]string, 0, len(s.traces))
		for n := range s.traces {
			names = append(names, n)
		}
		s.mu.Unlock()
		sort.Strings(names)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, n := range names {
			fmt.Fprintf(w, "/traces/%s\n", n)
		}
		return
	}
	s.mu.Lock()
	get := s.traces[name]
	s.mu.Unlock()
	if get == nil {
		http.NotFound(w, r)
		return
	}
	data, err := get()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // client disconnects only
}

func (s *Server) timeseries(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	c := s.ts
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if c == nil {
		fmt.Fprint(w, `{"series":[]}`+"\n")
		return
	}
	c.WriteJSON(w) //nolint:errcheck // client disconnects only
}

func (s *Server) run(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Path[len("/runs/"):]
	if name == "" {
		s.mu.Lock()
		names := make([]string, 0, len(s.runs))
		for n := range s.runs {
			names = append(names, n)
		}
		st := s.store
		s.mu.Unlock()
		if st != nil {
			// Archived runs join the listing under their store-wide names
			// ("<keydir>@<seq>" — no separators, so they can never shadow
			// the in-memory registry's vetted names).
			for _, e := range st.Entries() {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, n := range names {
			fmt.Fprintf(w, "/runs/%s\n", n)
		}
		return
	}
	s.mu.Lock()
	data := s.runs[name]
	st := s.store
	s.mu.Unlock()
	if data == nil && st != nil {
		if rep, err := st.Get(name); err == nil {
			var b bytes.Buffer
			if err := rep.Write(&b); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			data = b.Bytes()
		}
	}
	if data == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // client disconnects only
}

func (s *Server) dashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, dashboardHTML) //nolint:errcheck // client disconnects only
}

// dashboardHTML is the whole dashboard: no frameworks, no external assets,
// one page that polls /timeseries once a second and redraws an SVG
// sparkline per series. Kept dependency-free on purpose — it must work
// from a curl'd file on an air-gapped box.
const dashboardHTML = `<!doctype html>
<html>
<head>
<meta charset="utf-8">
<title>logpopt dashboard</title>
<style>
body { font: 13px/1.4 monospace; background: #111; color: #ddd; margin: 1.5em; }
h1 { font-size: 15px; }
.row { display: flex; align-items: center; gap: 1em; border-bottom: 1px solid #333; padding: 3px 0; }
.name { width: 22em; overflow: hidden; text-overflow: ellipsis; }
.val { width: 10em; text-align: right; color: #8fd; }
.range { width: 16em; color: #777; }
svg { background: #1a1a1a; }
polyline { fill: none; stroke: #4cf; stroke-width: 1.25; }
#status { color: #777; margin-top: 1em; }
</style>
</head>
<body>
<h1>logpopt live time series</h1>
<div id="charts"></div>
<div id="status">connecting&hellip;</div>
<script>
"use strict";
function spark(points, w, h) {
  if (points.length < 2) return "";
  let lo = Infinity, hi = -Infinity;
  for (const [, v] of points) { if (v < lo) lo = v; if (v > hi) hi = v; }
  const span = (hi - lo) || 1;
  const t0 = points[0][0], t1 = points[points.length - 1][0];
  const tspan = (t1 - t0) || 1;
  return points.map(([t, v]) =>
    ((t - t0) / tspan * (w - 2) + 1).toFixed(1) + "," +
    ((1 - (v - lo) / span) * (h - 2) + 1).toFixed(1)).join(" ");
}
async function tick() {
  const status = document.getElementById("status");
  try {
    const res = await fetch("/timeseries");
    const doc = await res.json();
    const charts = document.getElementById("charts");
    charts.textContent = "";
    for (const s of doc.series) {
      const pts = s.points;
      const last = pts.length ? pts[pts.length - 1][1] : 0;
      let lo = Infinity, hi = -Infinity;
      for (const [, v] of pts) { if (v < lo) lo = v; if (v > hi) hi = v; }
      const row = document.createElement("div");
      row.className = "row";
      const name = document.createElement("span");
      name.className = "name"; name.textContent = s.name;
      const val = document.createElement("span");
      val.className = "val"; val.textContent = last;
      const svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
      svg.setAttribute("width", 360); svg.setAttribute("height", 36);
      const line = document.createElementNS("http://www.w3.org/2000/svg", "polyline");
      line.setAttribute("points", spark(pts, 360, 36));
      svg.appendChild(line);
      const range = document.createElement("span");
      range.className = "range";
      range.textContent = pts.length ? "[" + lo + ", " + hi + "] n=" + pts.length : "no samples";
      row.append(name, val, svg, range);
      charts.appendChild(row);
    }
    status.textContent = doc.series.length + " series, updated " + new Date().toLocaleTimeString();
  } catch (err) {
    status.textContent = "fetch failed: " + err;
  }
}
tick();
setInterval(tick, 1000);
</script>
</body>
</html>
`
