package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs"
	"logpopt/internal/obs/causal"
	"logpopt/internal/par"
	"logpopt/internal/schedule"
)

// maxBatch bounds one /v1/batch body (explicit requests plus the expanded
// sweep cross product), so a single request cannot fan out unboundedly.
const maxBatch = 4096

// Options configures an API.
type Options struct {
	// Cache answers /v1/schedule and /v1/batch; nil builds a default
	// cache with a 256 MiB budget over Registry.
	Cache *Cache
	// Registry receives the servd.* metrics; nil uses obs.Default.
	Registry *obs.Registry
	// Tracer, when non-nil, records one span per request on TracePID.
	Tracer *obs.Tracer
	// Log receives one structured record per request; nil discards.
	Log *slog.Logger
	// Slow escalates requests at or above this duration to a warning log
	// record; zero disables the slow-request log.
	Slow time.Duration
}

// API is the scheduling service: the handler set behind cmd/logpservd,
// mountable into an obs/serve.Server so the scheduling endpoints and the
// telemetry endpoints share one listener and one graceful shutdown.
type API struct {
	cache  *Cache
	reg    *obs.Registry
	tracer *obs.Tracer
	log    *slog.Logger
	slow   time.Duration

	ready      atomic.Bool
	started    time.Time
	nextID     atomic.Int64
	inflightMu sync.Mutex
	inflight   map[int64]*inflightInfo
	gInflight  *obs.Gauge
}

// NewAPI builds the service endpoints over opts.
func NewAPI(opts Options) *API {
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewCache(256<<20, reg)
	}
	log := opts.Log
	if log == nil {
		log = discardLogger()
	}
	a := &API{
		cache:     cache,
		reg:       reg,
		tracer:    opts.Tracer,
		log:       log,
		slow:      opts.Slow,
		started:   time.Now(),
		inflight:  map[int64]*inflightInfo{},
		gInflight: reg.Gauge("servd.http.inflight"),
	}
	if a.tracer != nil {
		a.tracer.NameProcess(TracePID, "logpservd requests (wall µs)")
	}
	return a
}

// SetReady flips the /readyz answer; cmd/logpservd sets it after the warmup
// solve so load balancers only route to a server whose solver paths are hot.
func (a *API) SetReady(ready bool) { a.ready.Store(ready) }

// Warm answers req through the cache outside any HTTP request — the
// daemon's pre-readiness warmup, exercising the same canonicalization and
// solve paths real requests take and seeding the cache with the answers.
func (a *API) Warm(req Request) (*Result, error) {
	res, _, err := a.resolve(req, nil)
	return res, err
}

// Route is one mountable endpoint with its index-page description.
type Route struct {
	Pattern string
	Desc    string
	Handler http.Handler
}

// Routes returns every endpoint the API serves, instrumented. The caller
// mounts them into a mux (cmd/logpservd mounts them into the obs/serve
// telemetry server so both surfaces share one listener).
func (a *API) Routes() []Route {
	return []Route{
		{"/v1/schedule", "optimal schedule for (op, P, L, o, g, k, t): JSON envelope, &format=schedule for raw schedule JSON", a.wrap("schedule", a.handleSchedule)},
		{"/v1/batch", "POST a batch or sweep of schedule requests, fanned out in parallel", a.wrap("batch", a.handleBatch)},
		{"/v1/explain", "causal critical-path report for a request: text, &format=json for fields", a.wrap("explain", a.handleExplain)},
		{"/healthz", "liveness: 200 while the process serves", a.wrap("healthz", a.handleHealthz)},
		{"/readyz", "readiness: 200 after warmup, 503 before", a.wrap("readyz", a.handleReadyz)},
		{"/debug/inflight", "in-flight requests with ages (JSON)", a.wrap("inflight", a.handleInflight)},
		{"/debug/cache", "schedule cache: size, bytes, hit/miss/coalesce/eviction counts (JSON)", a.wrap("cache", a.handleCache)},
	}
}

// Handler builds a standalone mux of the API routes (tests and the load
// benchmark use it directly; the daemon mounts Routes into obs/serve).
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range a.Routes() {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	return mux
}

// httpError writes a plain-text error with the API's uniform shape.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// machineJSON is the machine as it appears in response envelopes, matching
// the schedule interchange format's field names.
type machineJSON struct {
	P int       `json:"p"`
	L logp.Time `json:"l"`
	O logp.Time `json:"o"`
	G logp.Time `json:"g"`
}

// Envelope is the /v1/schedule response (and one /v1/batch result): the
// canonical key, the outcome numbers, how the cache answered, and — unless
// suppressed — the schedule itself in the interchange format.
type Envelope struct {
	Key         string          `json:"key"`
	Op          string          `json:"op"`
	Constructor string          `json:"constructor,omitempty"`
	Machine     machineJSON     `json:"machine"`
	K           int             `json:"k,omitempty"`
	Deadline    logp.Time       `json:"t,omitempty"`
	Finish      logp.Time       `json:"finish"`
	Bound       logp.Time       `json:"bound"`
	Gap         logp.Time       `json:"gap"`
	Events      int             `json:"events"`
	Cache       Outcome         `json:"cache"`
	SolveMicros int64           `json:"solve_us"`
	Error       string          `json:"error,omitempty"`
	Schedule    json.RawMessage `json:"schedule,omitempty"`
}

// envelope assembles the response metadata for one cache answer.
func envelope(res *Result, out Outcome, withSchedule bool) Envelope {
	k := res.Key
	gap := logp.Time(0)
	if res.Bound >= 0 {
		gap = res.Finish - res.Bound
	}
	e := Envelope{
		Key:         k.String(),
		Op:          k.Op,
		Constructor: k.Constructor,
		Machine:     machineJSON{P: k.P, L: k.L, O: k.O, G: k.G},
		K:           k.K,
		Deadline:    k.Deadline,
		Finish:      res.Finish,
		Bound:       res.Bound,
		Gap:         gap,
		Events:      res.Events,
		Cache:       out,
		SolveMicros: res.SolveMicros,
	}
	if withSchedule {
		e.Schedule = json.RawMessage(res.JSON)
	}
	return e
}

// parseRequest reads one Request from the query string (GET) or a JSON body
// (POST); absent fields take the defaults either way.
func (a *API) parseRequest(r *http.Request) (Request, error) {
	if r.Method == http.MethodPost {
		var req Request
		if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20)).Decode(&req); err != nil {
			return Request{}, fmt.Errorf("decoding request body: %w", err)
		}
		return req, nil
	}
	return ParseQuery(r.URL.Query().Get)
}

// resolve canonicalizes and answers one request through the cache,
// annotating info, when it is not nil, along the way.
func (a *API) resolve(req Request, info *inflightInfo) (*Result, Outcome, error) {
	key, err := Canonicalize(req, "")
	if err != nil {
		if req.Op != "" && KnownOp(req.Op) && info != nil {
			info.setOp(req.Op)
		}
		return nil, "", err
	}
	if info != nil {
		info.setKey(key)
	}
	res, out, err := a.cache.Get(key)
	if info != nil {
		info.setOutcome(out)
	}
	return res, out, err
}

// resolveStatus is the status for a resolve error: 500 when the solve
// panicked, 400 for every other error, which is the request's.
func resolveStatus(err error) int {
	var sp *SolvePanic
	if errors.As(err, &sp) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

func (a *API) handleSchedule(w http.ResponseWriter, r *http.Request, info *inflightInfo) {
	req, err := a.parseRequest(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, out, err := a.resolve(req, info)
	if err != nil {
		httpError(w, resolveStatus(err), "%v", err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "schedule":
		// The exact bytes schedule.WriteJSON produced — what a local
		// `logpsched -render json` run prints, so the thin client and the
		// smoke test can diff CLI against service byte for byte.
		w.Header().Set("Content-Type", "application/json")
		w.Write(res.JSON) //nolint:errcheck // client disconnects only
	case "", "envelope":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.Encode(envelope(res, out, r.URL.Query().Get("schedule") != "false")) //nolint:errcheck
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want envelope or schedule)", format)
	}
}

// Batch is the /v1/batch request body: explicit requests, an optional sweep
// whose axes cross-product into more requests, and whether the (potentially
// large) schedules ride along in the results.
type Batch struct {
	Requests         []Request `json:"requests,omitempty"`
	Sweep            *Sweep    `json:"sweep,omitempty"`
	IncludeSchedules bool      `json:"include_schedules,omitempty"`
}

// Sweep expands to the cross product of its axes. An empty axis takes the
// request default alone (L=6, o=2, g=4, k=1, no deadline); P is required.
type Sweep struct {
	Op          string      `json:"op"`
	Constructor string      `json:"constructor,omitempty"`
	P           []int       `json:"p"`
	L           []logp.Time `json:"l,omitempty"`
	O           []logp.Time `json:"o,omitempty"`
	G           []logp.Time `json:"g,omitempty"`
	K           []int       `json:"k,omitempty"`
	Deadline    []logp.Time `json:"t,omitempty"`
}

// expand returns the sweep's cross product.
func (s *Sweep) expand() ([]Request, error) {
	if len(s.P) == 0 {
		return nil, fmt.Errorf("sweep: p axis is required")
	}
	ls, os, gs := axis(s.L, defaults.L), axis(s.O, defaults.O), axis(s.G, defaults.G)
	ks, ts := axis(s.K, defaults.K), axis(s.Deadline, defaults.Deadline)
	var out []Request
	for _, p := range s.P {
		for _, l := range ls {
			for _, o := range os {
				for _, g := range gs {
					for _, k := range ks {
						for _, t := range ts {
							out = append(out, Request{
								Op: s.Op, Constructor: s.Constructor,
								P: p, L: l, O: o, G: g, K: k, Deadline: t,
							})
							if len(out) > maxBatch {
								return nil, fmt.Errorf("sweep expands past the %d-request batch limit", maxBatch)
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// axis returns vs, or def alone when vs is empty.
func axis[T any](vs []T, def T) []T {
	if len(vs) == 0 {
		return []T{def}
	}
	return vs
}

// BatchResponse is the /v1/batch reply.
type BatchResponse struct {
	Count   int        `json:"count"`
	Errors  int        `json:"errors"`
	Results []Envelope `json:"results"`
}

func (a *API) handleBatch(w http.ResponseWriter, r *http.Request, info *inflightInfo) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a JSON batch body to /v1/batch")
		return
	}
	var batch Batch
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		httpError(w, http.StatusBadRequest, "decoding batch body: %v", err)
		return
	}
	reqs := batch.Requests
	if batch.Sweep != nil {
		expanded, err := batch.Sweep.expand()
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		reqs = append(reqs, expanded...)
	}
	if len(reqs) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch: give requests, a sweep, or both")
		return
	}
	if len(reqs) > maxBatch {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds the %d-request limit", len(reqs), maxBatch)
		return
	}
	// One op labels the whole batch when the requests agree (the common
	// sweep shape); mixed batches are labeled as such.
	op := reqs[0].Op
	for _, rq := range reqs[1:] {
		if rq.Op != op {
			op = "mixed"
			break
		}
	}
	if op == "" {
		op = "broadcast"
	}
	info.setOp(op)

	// Fan the batch out through the shared worker pool; the cache coalesces
	// duplicate keys inside the batch, so a sweep that repeats a machine
	// solves it once.
	results := par.Map(reqs, func(rq Request) Envelope {
		res, out, err := a.resolve(rq, nil)
		if err != nil {
			return Envelope{Op: rq.Op, Error: err.Error()}
		}
		return envelope(res, out, batch.IncludeSchedules)
	})
	resp := BatchResponse{Count: len(results), Results: results}
	for i := range results {
		if results[i].Error != "" {
			resp.Errors++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // client disconnects only
}

// explainJSON is /v1/explain?format=json: the causal numbers without the
// rendered text.
type explainJSON struct {
	Key      string        `json:"key"`
	Op       string        `json:"op"`
	Machine  machineJSON   `json:"machine"`
	Finish   logp.Time     `json:"finish"`
	Bound    logp.Time     `json:"bound"`
	Gap      logp.Time     `json:"gap"`
	Steps    int           `json:"critical_path_steps"`
	Achieved breakdownJSON `json:"achieved"`
	Cache    Outcome       `json:"cache"`
}

type breakdownJSON struct {
	Latency  logp.Time `json:"latency"`
	Overhead logp.Time `json:"overhead"`
	Gap      logp.Time `json:"gap"`
	Compute  logp.Time `json:"compute"`
	Origin   logp.Time `json:"origin"`
	Wait     logp.Time `json:"wait"`
}

func toBreakdownJSON(b causal.Breakdown) breakdownJSON {
	return breakdownJSON{
		Latency: b.Latency, Overhead: b.Overhead, Gap: b.Gap,
		Compute: b.Compute, Origin: b.Origin, Wait: b.Wait,
	}
}

func (a *API) handleExplain(w http.ResponseWriter, r *http.Request, info *inflightInfo) {
	req, err := a.parseRequest(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, out, err := a.resolve(req, info)
	if err != nil {
		httpError(w, resolveStatus(err), "%v", err)
		return
	}
	// The cache holds only the schedule's bytes, so the schedule is
	// recompiled here and analyzed exactly as `logpsched -explain` does; the
	// cache lookup still coalesces the request and supplies the outcome.
	key := res.Key
	comp, err := Compile(key.Machine(), key.Op, key.K, key.Deadline, logtime.Tree)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	rep := causal.Analyze(comp.S, schedule.DerivedOrigins(comp.S))
	if err := ApplyBound(rep, comp, key.Machine()); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, rep.String())
	case "json":
		gap := logp.Time(0)
		if res.Bound >= 0 {
			gap = res.Finish - res.Bound
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(explainJSON{ //nolint:errcheck // client disconnects only
			Key:      key.String(),
			Op:       key.Op,
			Machine:  machineJSON{P: key.P, L: key.L, O: key.O, G: key.G},
			Finish:   res.Finish,
			Bound:    res.Bound,
			Gap:      gap,
			Steps:    len(rep.Path),
			Achieved: toBreakdownJSON(rep.Achieved),
			Cache:    out,
		})
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want text or json)", format)
	}
}

func (a *API) handleHealthz(w http.ResponseWriter, _ *http.Request, _ *inflightInfo) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (a *API) handleReadyz(w http.ResponseWriter, _ *http.Request, _ *inflightInfo) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !a.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "warming")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (a *API) handleInflight(w http.ResponseWriter, _ *http.Request, _ *inflightInfo) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct { //nolint:errcheck // client disconnects only
		Inflight []inflightInfo `json:"inflight"`
	}{a.Inflight()})
}

// cacheDebug is the /debug/cache document.
type cacheDebug struct {
	Totals        ShardStats `json:"totals"`
	MaxBytes      int64      `json:"max_bytes"`
	UptimeSeconds float64    `json:"uptime_seconds"`
}

func (a *API) handleCache(w http.ResponseWriter, _ *http.Request, _ *inflightInfo) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(cacheDebug{ //nolint:errcheck // client disconnects only
		Totals:        a.cache.Stats(),
		MaxBytes:      a.cache.maxBytes,
		UptimeSeconds: time.Since(a.started).Seconds(),
	})
}
