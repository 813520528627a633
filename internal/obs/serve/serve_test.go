package serve

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"logpopt/internal/logp"
	"logpopt/internal/obs"
	"logpopt/internal/obs/report"
	"logpopt/internal/obs/timeseries"
)

func get(t *testing.T, h http.Handler, path string) (int, string, http.Header) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code, rr.Body.String(), rr.Header()
}

func TestEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("sim.replays").Add(7)
	s := New(reg)
	tr := obs.NewTracer()
	tr.Span(0, 0, "send", 0, 2)
	s.AddTracer("run1", tr)
	s.AddTrace("done", []byte(`{"traceEvents":[]}`))
	h := s.Handler()

	code, body, _ := get(t, h, "/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: code %d body %q", code, body)
	}
	code, _, _ = get(t, h, "/nope")
	if code != 404 {
		t.Errorf("unknown path: code %d, want 404", code)
	}

	code, body, hdr := get(t, h, "/metrics")
	if code != 200 || !strings.Contains(body, "logpopt_sim_replays_total 7") {
		t.Fatalf("metrics: code %d body %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}

	code, body, _ = get(t, h, "/traces/")
	if code != 200 || !strings.Contains(body, "/traces/run1") || !strings.Contains(body, "/traces/done") {
		t.Fatalf("trace index: code %d body %q", code, body)
	}
	code, body, hdr = get(t, h, "/traces/run1")
	if code != 200 || !strings.Contains(body, `"traceEvents"`) || !strings.Contains(body, `"send"`) {
		t.Fatalf("live trace: code %d body %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace content type %q", ct)
	}
	code, body, _ = get(t, h, "/traces/done")
	if code != 200 || body != `{"traceEvents":[]}` {
		t.Fatalf("static trace: code %d body %q", code, body)
	}
	code, _, _ = get(t, h, "/traces/missing")
	if code != 404 {
		t.Errorf("missing trace: code %d, want 404", code)
	}

	code, _, _ = get(t, h, "/debug/pprof/")
	if code != 200 {
		t.Errorf("pprof index: code %d", code)
	}
}

func TestStartClose(t *testing.T) {
	s := New(nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("live /metrics: %d %q", resp.StatusCode, body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close must be a no-op:", err)
	}
}

// TestPartialHeaderClosed: a client that sends part of its request headers
// and then stalls is disconnected once the header timeout passes, instead of
// holding its connection and serving goroutine open forever.
func TestPartialHeaderClosed(t *testing.T) {
	s := New(nil)
	if s.headerTimeout != readHeaderTimeout {
		t.Fatalf("New sets header timeout %v, want %v", s.headerTimeout, readHeaderTimeout)
	}
	s.headerTimeout = 100 * time.Millisecond
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server kept a connection with unfinished headers open for 5s")
	}
}

// TestNewEndpoints covers /timeseries, /runs/, and /dashboard.
func TestNewEndpoints(t *testing.T) {
	s := New(obs.NewRegistry())
	h := s.Handler()

	// No collector attached: an empty, still-valid JSON document.
	code, body, hdr := get(t, h, "/timeseries")
	if code != 200 || strings.TrimSpace(body) != `{"series":[]}` {
		t.Fatalf("empty timeseries: code %d body %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("timeseries content type %q", ct)
	}

	ts := timeseries.New(0)
	v := int64(3)
	ts.Probe("queue.depth", func() int64 { return v })
	ts.Sample(1)
	v = 9
	ts.Sample(2)
	s.SetTimeseries(ts)
	code, body, _ = get(t, h, "/timeseries")
	if code != 200 || !strings.Contains(body, `"queue.depth"`) || !strings.Contains(body, "[2,9]") {
		t.Fatalf("timeseries: code %d body %q", code, body)
	}

	// Runs registry: listing, fetch, and 404.
	m := logp.MustNew(8, 6, 2, 4)
	r := report.New("test", m)
	if err := s.AddReport("night.json", r); err != nil {
		t.Fatal(err)
	}
	code, body, _ = get(t, h, "/runs/")
	if code != 200 || !strings.Contains(body, "/runs/night.json") {
		t.Fatalf("runs index: code %d body %q", code, body)
	}
	code, body, hdr = get(t, h, "/runs/night.json")
	if code != 200 || !strings.Contains(body, `"tool": "test"`) {
		t.Fatalf("run fetch: code %d body %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("run content type %q", ct)
	}
	code, _, _ = get(t, h, "/runs/other.json")
	if code != 404 {
		t.Errorf("missing run: code %d, want 404", code)
	}

	// An invalid report must be rejected, not served.
	bad := report.New("", m)
	if err := s.AddReport("bad.json", bad); err == nil {
		t.Error("AddReport accepted an invalid report")
	}

	code, body, hdr = get(t, h, "/dashboard")
	if code != 200 || !strings.Contains(body, "/timeseries") || !strings.Contains(body, "<svg") && !strings.Contains(body, "svg") {
		t.Fatalf("dashboard: code %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("dashboard content type %q", ct)
	}

	// The index advertises every route.
	_, body, _ = get(t, h, "/")
	for _, want := range []string{"/metrics", "/traces/", "/timeseries", "/runs/", "/dashboard"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %s", want)
		}
	}
}

// TestHostileNames: names with separators, traversal, or control bytes are
// rejected by every registry so they can never shadow other routes.
func TestHostileNames(t *testing.T) {
	s := New(obs.NewRegistry())
	m := logp.MustNew(8, 6, 2, 4)
	hostile := []string{
		"",
		".",
		"..",
		"../../etc/passwd",
		"a/b",
		`a\b`,
		"sneaky/../metrics",
		"ctrl\x00byte",
		"new\nline",
		"del\x7fchar",
		strings.Repeat("x", 129),
	}
	for _, name := range hostile {
		if err := s.AddTrace(name, []byte("{}")); err == nil {
			t.Errorf("AddTrace accepted %q", name)
		}
		if err := s.AddTracer(name, obs.NewTracer()); err == nil {
			t.Errorf("AddTracer accepted %q", name)
		}
		if err := s.AddReport(name, report.New("t", m)); err == nil {
			t.Errorf("AddReport accepted %q", name)
		}
	}
	for _, name := range []string{"run-1.json", "bcast_P64", "night.2026-08-08"} {
		if err := s.AddTrace(name, []byte("{}")); err != nil {
			t.Errorf("AddTrace rejected benign %q: %v", name, err)
		}
	}
	// Nothing hostile leaked into the listing.
	_, body, _ := get(t, s.Handler(), "/traces/")
	if strings.Contains(body, "passwd") || strings.Contains(body, "sneaky") {
		t.Fatalf("hostile name served:\n%s", body)
	}
}

// TestTraceRenderError: a trace whose renderer fails maps to a 500, not a
// panic or an empty 200.
func TestTraceRenderError(t *testing.T) {
	s := New(obs.NewRegistry())
	s.mu.Lock()
	s.traces["boom"] = func() ([]byte, error) { return nil, errors.New("render exploded") }
	s.mu.Unlock()
	code, body, _ := get(t, s.Handler(), "/traces/boom")
	if code != 500 || !strings.Contains(body, "render exploded") {
		t.Fatalf("render error: code %d body %q", code, body)
	}
}

// TestCloseLetsSlowReaderFinish is the graceful-shutdown regression test: a
// request in flight when Close is called completes with its full body, and
// Close still returns promptly.
func TestCloseLetsSlowReaderFinish(t *testing.T) {
	s := New(obs.NewRegistry())
	started := make(chan struct{})
	payload := strings.Repeat("x", 1<<16)
	if err := s.AddTrace("slow", []byte(payload)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	inner := s.traces["slow"]
	s.traces["slow"] = func() ([]byte, error) {
		close(started)
		time.Sleep(300 * time.Millisecond) // hold the request across Close
		return inner()
	}
	s.mu.Unlock()

	var closed bool
	s.OnClose(func() { closed = true })

	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/traces/slow")
		if err != nil {
			done <- result{nil, err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- result{b, err}
	}()

	<-started // request is inside the handler
	closeStart := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("Close during in-flight request: %v", err)
	}
	if d := time.Since(closeStart); d > closeGrace {
		t.Fatalf("Close took %v, beyond the %v grace", d, closeGrace)
	}
	if !closed {
		t.Error("OnClose hook did not run")
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("slow reader failed across Close: %v", res.err)
	}
	if string(res.body) != payload {
		t.Fatalf("slow reader got %d bytes, want %d", len(res.body), len(payload))
	}
	// New connections are refused after Close.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still accepting connections after Close")
	}
}
