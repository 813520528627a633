package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"logpopt/internal/serve/sched"
)

// startDaemon runs run() in a goroutine on an ephemeral port, waits for the
// bound address to land in the addrfile, and returns the base URL, the stop
// channel, and a channel carrying run's return value.
func startDaemon(t *testing.T, extraArgs ...string) (string, chan os.Signal, chan error) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "servd.addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrFile}, extraArgs...)
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, io.Discard, stop) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return "http://" + strings.TrimSpace(string(b)), stop, done
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before binding: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its address file")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetch GETs url and returns (status, body).
func fetch(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestDaemonEndToEnd boots the daemon over a loopback listener and walks the
// whole serving surface: readiness after warmup, a schedule answer (a cache
// hit, since warmup seeded P=64), merged telemetry endpoints, the index's
// mounted-route listing, and a clean SIGTERM shutdown.
func TestDaemonEndToEnd(t *testing.T) {
	base, stop, done := startDaemon(t)

	// Warmup ran before the addrfile test proceeds past /readyz, so poll
	// until ready flips (warmup happens after listening).
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := fetch(t, base+"/readyz")
		if code == http.StatusOK {
			if !strings.Contains(body, "ready") {
				t.Fatalf("/readyz body = %q", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never went 200 (last: %d %q)", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if code, body := fetch(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// Warmup solved broadcast P=64 on the default machine: this is a hit.
	code, body := fetch(t, base+"/v1/schedule?op=broadcast&p=64")
	if code != http.StatusOK {
		t.Fatalf("/v1/schedule = %d %s", code, body)
	}
	if !strings.Contains(body, `"cache":"hit"`) {
		t.Fatalf("warmup-seeded request was not a cache hit: %s", clipBody(body))
	}

	// The metrics surface carries the servd series and the process preamble.
	code, metrics := fetch(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"logp_build_info",
		"logp_process_uptime_seconds",
		"logpopt_servd_http_schedule_requests_total",
		"logpopt_servd_cache_hits_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// The index lists the mounted scheduling routes beside the built-ins.
	if code, index := fetch(t, base+"/"); code != http.StatusOK ||
		!strings.Contains(index, "mounted:") || !strings.Contains(index, "/v1/schedule") {
		t.Fatalf("index = %d %q", code, index)
	}

	if code, body := fetch(t, base+"/debug/cache"); code != http.StatusOK ||
		!strings.Contains(body, `"totals"`) {
		t.Fatalf("/debug/cache = %d %q", code, clipBody(body))
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down within 10s of SIGTERM")
	}
}

// TestDaemonTrace: with -trace, request spans land in the trace file after
// shutdown closes it.
func TestDaemonTrace(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	base, stop, done := startDaemon(t, "-trace", traceFile, "-tracesample", "1")

	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ := fetch(t, base+"/readyz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := fetch(t, base+"/v1/schedule?op=binomial&p=16"); code != http.StatusOK {
		t.Fatalf("schedule = %d", code)
	}

	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"schedule"`)) {
		t.Fatalf("trace file has no schedule span (%d bytes)", len(b))
	}
	if !bytes.Contains(b, []byte("logpservd requests")) {
		t.Fatal("trace file missing the request process name")
	}
}

// TestDaemonFlagValidation: bad flags fail fast with flag-shaped messages,
// before any listener binds.
func TestDaemonFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-cache-bytes", "-1"}, "-cache-bytes"},
		{[]string{"-tracesample", "0"}, "-tracesample"},
		{[]string{"-constructor", "logtime"}, "flag provided but not defined: -constructor"},
	}
	for _, tc := range cases {
		stop := make(chan os.Signal, 1)
		err := run(tc.args, io.Discard, stop)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestDaemonMemoryLimit: while run() serves, the runtime's soft memory
// limit is sched.MemoryLimit of the cache budget, /metrics reports the
// limit in effect and /timeseries plots it beside the live heap; on return
// the previous limit is back. A GOMEMLIMIT in the environment and an
// unbounded cache leave the limit alone, and a budget near MaxInt64
// saturates instead of wrapping.
func TestDaemonMemoryLimit(t *testing.T) {
	const prev = 3 << 30 // stands in for whatever limit the process had
	orig := debug.SetMemoryLimit(prev)
	t.Cleanup(func() { debug.SetMemoryLimit(orig) })
	cases := []struct {
		name, gomemlimit string
		args             []string
		want             int64
	}{
		{"default budget", "", nil, sched.MemoryLimit(sched.DefaultCacheBytes)},
		{"set budget", "", []string{"-cache-bytes", "1000000"}, sched.MemoryLimit(1000000)},
		{"GOMEMLIMIT wins", "3GiB", []string{"-cache-bytes", "1000000"}, prev},
		{"unbounded cache", "", []string{"-cache-bytes", "0"}, prev},
		{"huge budget saturates", "", []string{"-cache-bytes", strconv.FormatInt(math.MaxInt64-1, 10)}, math.MaxInt64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("GOMEMLIMIT", tc.gomemlimit)
			base, stop, done := startDaemon(t, tc.args...)
			if got := debug.SetMemoryLimit(-1); got != tc.want {
				t.Errorf("memory limit while serving = %d, want %d", got, tc.want)
			}
			_, metrics := fetch(t, base+"/metrics")
			if line := fmt.Sprintf("logpopt_servd_memory_limit_bytes %d\n", tc.want); !strings.Contains(metrics, line) {
				t.Errorf("/metrics lacks %q", line)
			}
			_, series := fetch(t, base+"/timeseries")
			for _, name := range []string{`"servd.memory.limit.bytes"`, `"process.heap.live.bytes"`} {
				if !strings.Contains(series, name) {
					t.Errorf("/timeseries lacks the series %s", name)
				}
			}
			stop <- syscall.SIGTERM
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if got := debug.SetMemoryLimit(-1); got != prev {
				t.Errorf("memory limit after run = %d, want the previous %d", got, prev)
			}
		})
	}
}

// clipBody keeps failure messages readable when a body embeds a schedule.
func clipBody(s string) string {
	if len(s) > 300 {
		return fmt.Sprintf("%s… (%d bytes)", s[:300], len(s))
	}
	return s
}
