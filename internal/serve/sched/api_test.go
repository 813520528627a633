package sched

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"logpopt/internal/core"
	"logpopt/internal/obs"
	"logpopt/internal/schedule"
)

func newTestAPI(t *testing.T) (*API, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	a := NewAPI(Options{
		Cache:    NewCache(4, 0, reg),
		Registry: reg,
	})
	a.SetReady(true)
	return a, reg
}

func get(t *testing.T, h http.Handler, url string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec, body
}

func post(t *testing.T, h http.Handler, url, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec, out
}

func TestScheduleEndpoint(t *testing.T) {
	a, _ := newTestAPI(t)
	h := a.Handler()

	rec, body := get(t, h, "/v1/schedule?op=broadcast&p=16&l=6&o=2&g=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	if env.Op != "broadcast" || env.Machine.P != 16 || env.Cache != Miss {
		t.Fatalf("envelope = %+v", env)
	}
	if env.Finish != env.Bound || env.Gap != 0 {
		t.Fatalf("optimal broadcast should meet its bound: finish=%d bound=%d gap=%d", env.Finish, env.Bound, env.Gap)
	}
	if len(env.Schedule) == 0 {
		t.Fatal("envelope missing schedule")
	}
	s, err := schedule.ReadJSON(bytes.NewReader(env.Schedule))
	if err != nil {
		t.Fatalf("embedded schedule does not parse: %v", err)
	}
	if s.Makespan() != env.Finish {
		t.Fatalf("embedded schedule makespan %d != envelope finish %d", s.Makespan(), env.Finish)
	}

	// Second identical request is a hit.
	_, body = get(t, h, "/v1/schedule?op=broadcast&p=16&l=6&o=2&g=4")
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Cache != Hit {
		t.Fatalf("second request cache = %q, want hit", env.Cache)
	}

	// schedule=false suppresses the payload.
	_, body = get(t, h, "/v1/schedule?op=broadcast&p=16&l=6&o=2&g=4&schedule=false")
	var bare Envelope
	if err := json.Unmarshal(body, &bare); err != nil {
		t.Fatal(err)
	}
	if len(bare.Schedule) != 0 {
		t.Fatal("schedule=false still embedded the schedule")
	}
}

// TestScheduleFormatScheduleBytes: format=schedule must serve the exact
// bytes schedule.WriteJSON produced, for byte-for-byte CLI diffing.
func TestScheduleFormatScheduleBytes(t *testing.T) {
	a, _ := newTestAPI(t)
	h := a.Handler()
	rec, body := get(t, h, "/v1/schedule?op=broadcast&p=16&l=6&o=2&g=4&format=schedule")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	c, err := Compile(testKey(t, Request{Op: "broadcast", P: 16, L: 6, O: 2, G: 4, K: 1}).Machine(), "broadcast", 1, 0, core.OptimalTree)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := c.S.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatal("format=schedule bytes differ from a local WriteJSON")
	}
}

func TestScheduleErrors(t *testing.T) {
	a, _ := newTestAPI(t)
	h := a.Handler()
	cases := []struct {
		url  string
		want string
	}{
		{"/v1/schedule", "p is required"},
		{"/v1/schedule?p=16&op=sideways", "unknown op"},
		{"/v1/schedule?p=0", "p must be"},
		{"/v1/schedule?p=16&l=nope", `l="nope"`},
		{"/v1/schedule?p=16&format=yaml", "unknown format"},
		{"/v1/schedule?p=16&op=summation", "deadline"},
	}
	for _, tc := range cases {
		rec, body := get(t, h, tc.url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.url, rec.Code)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %q missing %q", tc.url, body, tc.want)
		}
	}
}

func TestSchedulePostBody(t *testing.T) {
	a, _ := newTestAPI(t)
	h := a.Handler()
	rec, body := post(t, h, "/v1/schedule", `{"op":"summation","p":8,"l":6,"o":2,"g":4,"t":28}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, body)
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Op != "summation" || env.Deadline != 28 {
		t.Fatalf("envelope = %+v", env)
	}
	if env.Finish > env.Bound {
		t.Fatalf("summation finished at %d past its deadline %d", env.Finish, env.Bound)
	}
}

func TestBatchEndpoint(t *testing.T) {
	a, _ := newTestAPI(t)
	h := a.Handler()

	// Sweep 4 machines plus one explicit request plus one bad request.
	rec, body := post(t, h, "/v1/batch", `{
		"requests": [
			{"op":"broadcast","p":8,"l":6,"o":2,"g":4},
			{"op":"sideways","p":8,"l":6,"o":2,"g":4}
		],
		"sweep": {"op":"broadcast","p":[4,8],"l":[6,9]}
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 6 {
		t.Fatalf("count = %d, want 6 (2 explicit + 2×2 sweep)", resp.Count)
	}
	if resp.Errors != 1 {
		t.Fatalf("errors = %d, want 1", resp.Errors)
	}
	// Results preserve request order: the bad request is second.
	if resp.Results[1].Error == "" || !strings.Contains(resp.Results[1].Error, "unknown op") {
		t.Fatalf("result[1] = %+v, want unknown-op error", resp.Results[1])
	}
	// The explicit (p=8,l=6) and the sweep's (8,6) are the same key: one
	// must have been answered from cache.
	var outcomes []Outcome
	for _, r := range resp.Results {
		if r.Key == "broadcast/logtime/P8/L6/o2/g4" {
			outcomes = append(outcomes, r.Cache)
		}
	}
	if len(outcomes) != 2 {
		t.Fatalf("expected 2 results for the duplicated key, got %d", len(outcomes))
	}
	misses := 0
	for _, o := range outcomes {
		if o == Miss {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("duplicated key solved %d times in one batch, want 1 (outcomes %v)", misses, outcomes)
	}
	// Schedules stay out of batch results unless asked for.
	if len(resp.Results[0].Schedule) != 0 {
		t.Fatal("batch embedded schedules without include_schedules")
	}

	rec, body = post(t, h, "/v1/batch", `{}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(string(body), "empty batch") {
		t.Fatalf("empty batch: status=%d body=%s", rec.Code, body)
	}
	rec, _ = get(t, h, "/v1/batch")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/batch status = %d, want 405", rec.Code)
	}
}

func TestExplainEndpoint(t *testing.T) {
	a, _ := newTestAPI(t)
	h := a.Handler()

	rec, body := get(t, h, "/v1/explain?op=binomial&p=16&l=6&o=2&g=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	text := string(body)
	if !strings.Contains(text, "critical path") {
		t.Fatalf("explain text missing critical path section:\n%s", text)
	}

	rec, body = get(t, h, "/v1/explain?op=binomial&p=16&l=6&o=2&g=4&format=json")
	if rec.Code != http.StatusOK {
		t.Fatalf("json status = %d", rec.Code)
	}
	var ex explainJSON
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Op != "binomial" || ex.Steps == 0 || ex.Finish == 0 {
		t.Fatalf("explainJSON = %+v", ex)
	}
	if ex.Gap != ex.Finish-ex.Bound {
		t.Fatalf("gap %d != finish %d - bound %d", ex.Gap, ex.Finish, ex.Bound)
	}
	// The schedule itself came from the cache (the first explain solved it).
	if ex.Cache != Hit {
		t.Fatalf("second explain cache = %q, want hit", ex.Cache)
	}
}

func TestHealthAndReady(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAPI(Options{Cache: NewCache(1, 0, reg), Registry: reg})
	h := a.Handler()

	rec, _ := get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d", rec.Code)
	}
	rec, body := get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(string(body), "warming") {
		t.Fatalf("/readyz before warmup: %d %s", rec.Code, body)
	}
	a.SetReady(true)
	rec, body = get(t, h, "/readyz")
	if rec.Code != http.StatusOK || !strings.Contains(string(body), "ready") {
		t.Fatalf("/readyz after warmup: %d %s", rec.Code, body)
	}
}

func TestDebugCacheEndpoint(t *testing.T) {
	a, _ := newTestAPI(t)
	h := a.Handler()

	// 1 miss + 2 hits on one key, 1 miss on another.
	get(t, h, "/v1/schedule?p=16")
	get(t, h, "/v1/schedule?p=16")
	get(t, h, "/v1/schedule?p=16")
	get(t, h, "/v1/schedule?p=32")

	rec, body := get(t, h, "/debug/cache")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var dbg cacheDebug
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Shards) != a.cache.Shards() {
		t.Fatalf("%d shard rows, want %d", len(dbg.Shards), a.cache.Shards())
	}
	if dbg.Totals.Misses != 2 || dbg.Totals.Hits != 2 || dbg.Totals.Size != 2 {
		t.Fatalf("totals = %+v, want 2 misses, 2 hits, 2 entries", dbg.Totals)
	}
}

func TestDebugInflightEndpoint(t *testing.T) {
	a, _ := newTestAPI(t)
	h := a.Handler()

	// Hold one request in flight by blocking its solve: a cold key whose
	// entry we pre-insert and never complete, so the handler coalesces and
	// blocks until released.
	k := testKey(t, Request{Op: "broadcast", P: 77, L: 6, O: 2, G: 4, K: 1})
	sh := a.cache.shards[k.Shard(a.cache.Shards())]
	blocked := &entry{ready: make(chan struct{})}
	sh.mu.Lock()
	sh.entries[k] = blocked
	sh.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, h, "/v1/schedule?p=77")
	}()
	// Wait until the in-flight table shows the blocked request with its key.
	var listed inflightInfo
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		infl := a.Inflight()
		if len(infl) == 1 && infl[0].Key != "" {
			listed = infl[0]
			break
		}
		time.Sleep(time.Millisecond)
	}
	if listed.Endpoint != "schedule" || listed.Key != k.String() {
		t.Fatalf("inflight = %+v, want schedule/%s", listed, k)
	}

	rec, body := get(t, h, "/debug/inflight")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var doc struct {
		Inflight []inflightInfo `json:"inflight"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	// The /debug/inflight request itself is in flight while serving, so the
	// list holds it plus the blocked schedule request (oldest first).
	if len(doc.Inflight) != 2 || doc.Inflight[0].Key != k.String() || doc.Inflight[1].Endpoint != "inflight" {
		t.Fatalf("/debug/inflight = %s", body)
	}

	// Release the blocked request and let it finish.
	res, err := a.cache.solve(k)
	if err != nil {
		t.Fatal(err)
	}
	blocked.res = res
	close(blocked.ready)
	wg.Wait()

	if got := a.Inflight(); len(got) != 0 {
		t.Fatalf("inflight after completion = %+v", got)
	}
}

// TestREDMetrics: every endpoint hit must produce per-endpoint request
// counters and duration histograms, plus per-op series when the op is known,
// all visible through the Prometheus exposition.
func TestREDMetrics(t *testing.T) {
	a, reg := newTestAPI(t)
	h := a.Handler()

	get(t, h, "/v1/schedule?p=16")
	get(t, h, "/v1/schedule?p=16")
	get(t, h, "/v1/schedule?p=0") // error
	post(t, h, "/v1/batch", `{"sweep":{"op":"alltoall","p":[4,8],"k":[2]}}`)
	get(t, h, "/v1/explain?op=broadcast&p=16")
	get(t, h, "/healthz")

	if got := reg.Counter("servd.http.schedule.requests").Value(); got != 3 {
		t.Fatalf("schedule requests = %d, want 3", got)
	}
	if got := reg.Counter("servd.http.schedule.errors").Value(); got != 1 {
		t.Fatalf("schedule errors = %d, want 1", got)
	}
	if got := reg.Counter("servd.http.schedule.broadcast.requests").Value(); got != 2 {
		t.Fatalf("per-op schedule.broadcast requests = %d, want 2", got)
	}
	if got := reg.Counter("servd.http.batch.alltoall.requests").Value(); got != 1 {
		t.Fatalf("per-op batch.alltoall requests = %d, want 1", got)
	}
	if got := reg.Histogram("servd.http.schedule.duration.us").Count(); got != 3 {
		t.Fatalf("schedule duration observations = %d, want 3", got)
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	exposition := buf.String()
	for _, series := range []string{
		"logpopt_servd_http_schedule_requests_total 3",
		"logpopt_servd_http_schedule_errors_total 1",
		`logpopt_servd_http_schedule_duration_us{quantile="0.99"}`,
		"logpopt_servd_cache_misses_total",
		"logpopt_servd_cache_entries",
	} {
		if !strings.Contains(exposition, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

func TestTraceSpansPerRequest(t *testing.T) {
	reg := obs.NewRegistry()
	var sink bytes.Buffer
	tr := obs.NewTracer()
	a := NewAPI(Options{Cache: NewCache(1, 0, reg), Registry: reg, Tracer: tr})
	a.SetReady(true)
	h := a.Handler()

	get(t, h, "/v1/schedule?p=16")
	get(t, h, "/healthz")

	if err := tr.WriteJSON(&sink); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(sink.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[string]map[string]any{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.PID == TracePID {
			spans[ev.Name] = ev.Args
		}
	}
	if len(spans) != 2 {
		t.Fatalf("request spans = %d, want 2 (got %v)", len(spans), spans)
	}
	args := spans["schedule"]
	if args == nil {
		t.Fatalf("no schedule span in %v", spans)
	}
	if args["op"] != "broadcast" || args["cache"] != "miss" {
		t.Fatalf("schedule span args = %v", args)
	}
	if args["key"] == nil || args["key"] == "" {
		t.Fatalf("schedule span missing key: %v", args)
	}
}
