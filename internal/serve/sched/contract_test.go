package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/logp"
)

// TestWireContract pins what the constructor field means on the wire now
// that one builder makes every tree. On both sides of P = 512, where the
// service once switched from heap search to the counting construction:
//
//   - omitting the constructor or naming auto, search, or logtime is one
//     cache key, whose constructor is "logtime";
//   - every spelling's format=schedule body is byte-identical to the same
//     op compiled on the heap-search oracle, core.OptimalTree;
//   - an unknown constructor is still a 400.
func TestWireContract(t *testing.T) {
	a, _ := newTestAPI(t)
	h := a.Handler()
	for _, p := range []int{64, 300, 511, 512, 3000} {
		for _, op := range []string{"broadcast", "reduce", "scan", "summation", "binomial"} {
			req := Request{Op: op, P: p, L: 6, O: 2, G: 4, K: 1}
			q := url.Values{"op": {op}, "p": {strconv.Itoa(p)}, "format": {"schedule"}}
			if op == "summation" {
				req.Deadline = 40
				q.Set("t", "40")
			}
			name := fmt.Sprintf("%s P=%d", op, p)
			c, err := Compile(logp.MustNew(p, 6, 2, 4), op, 1, req.Deadline, core.OptimalTree)
			if err != nil {
				t.Fatalf("%s: oracle compile: %v", name, err)
			}
			var want bytes.Buffer
			if err := c.S.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			var first Key
			for i, ctor := range []string{"", "auto", "search", "logtime"} {
				req.Constructor = ctor
				k, err := Canonicalize(req, "")
				if err != nil {
					t.Fatalf("%s constructor %q: %v", name, ctor, err)
				}
				if k.Constructor != "logtime" {
					t.Fatalf("%s constructor %q: key constructor %q, want logtime", name, ctor, k.Constructor)
				}
				if i == 0 {
					first = k
				} else if k != first {
					t.Fatalf("%s: constructor %q gives key %q, omitted gives %q", name, ctor, k, first)
				}
				if ctor != "" {
					q.Set("constructor", ctor)
				}
				rec, body := get(t, h, "/v1/schedule?"+q.Encode())
				if rec.Code != http.StatusOK {
					t.Fatalf("%s constructor %q: status %d: %s", name, ctor, rec.Code, body)
				}
				if !bytes.Equal(body, want.Bytes()) {
					t.Fatalf("%s constructor %q: body (%d bytes) differs from the search oracle's (%d bytes)",
						name, ctor, len(body), want.Len())
				}
			}
			q.Set("constructor", "bogus")
			if rec, body := get(t, h, "/v1/schedule?"+q.Encode()); rec.Code != http.StatusBadRequest {
				t.Fatalf("%s constructor=bogus: status %d, want 400: %s", name, rec.Code, body)
			}
		}
	}
}

// TestKeySpellingStable: keys at P >= 512 resolved to "logtime" before the
// search constructor was retired too, so their canonical spelling, and with
// it archived run-store keys, must not move.
func TestKeySpellingStable(t *testing.T) {
	cases := []struct {
		req  Request
		want string
	}{
		{Request{Op: "broadcast", P: 512}, "broadcast/logtime/P512/L6/o2/g4"},
		{Request{Op: "reduce", P: 512}, "reduce/logtime/P512/L6/o2/g4"},
		{Request{Op: "scan", P: 512}, "scan/logtime/P512/L6/o2/g4"},
		{Request{Op: "summation", P: 512, Deadline: 40}, "summation/logtime/P512/L6/o2/g4/t40"},
		{Request{Op: "binomial", P: 512}, "binomial/logtime/P512/L6/o2/g4"},
		{Request{Op: "broadcast", P: 3000, Constructor: "auto"}, "broadcast/logtime/P3000/L6/o2/g4"},
		{Request{Op: "reduce", P: 3000, Constructor: "logtime"}, "reduce/logtime/P3000/L6/o2/g4"},
		{Request{Op: "scan", P: 3000}, "scan/logtime/P3000/L6/o2/g4"},
		{Request{Op: "summation", P: 3000, Deadline: 40}, "summation/logtime/P3000/L6/o2/g4/t40"},
		{Request{Op: "binomial", P: 3000}, "binomial/logtime/P3000/L6/o2/g4"},
	}
	for _, tc := range cases {
		tc.req.L, tc.req.O, tc.req.G, tc.req.K = 6, 2, 4, 1
		k, err := Canonicalize(tc.req, "")
		if err != nil {
			t.Fatal(err)
		}
		if got := k.String(); got != tc.want {
			t.Errorf("%+v: key %q, want %q", tc.req, got, tc.want)
		}
	}
}

var updateContract = flag.Bool("update", false, "rewrite testdata/contract.txt from the current daemon")

// contractTranscript drives a fresh API through every contract op at two
// sizes and records what a client sees: the /v1/schedule envelope's finish,
// bound, gap and event count, a digest of the format=schedule body, and the
// /v1/explain text and JSON. The order of requests is fixed, so the cache
// outcomes in the explain JSON are too.
func contractTranscript(t *testing.T) []byte {
	a, _ := newTestAPI(t)
	h := a.Handler()
	var out bytes.Buffer
	for _, p := range []int{64, 3000} {
		for _, op := range []string{"broadcast", "reduce", "scan", "summation", "binomial"} {
			q := url.Values{"op": {op}, "p": {strconv.Itoa(p)}}
			if op == "summation" {
				q.Set("t", "40")
			}
			fmt.Fprintf(&out, "== %s P=%d\n", op, p)
			q.Set("schedule", "false")
			rec, body := get(t, h, "/v1/schedule?"+q.Encode())
			if rec.Code != http.StatusOK {
				t.Fatalf("%s P=%d: envelope status %d: %s", op, p, rec.Code, body)
			}
			var env Envelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "envelope finish=%d bound=%d gap=%d events=%d\n", env.Finish, env.Bound, env.Gap, env.Events)
			q.Del("schedule")
			q.Set("format", "schedule")
			rec, body = get(t, h, "/v1/schedule?"+q.Encode())
			if rec.Code != http.StatusOK {
				t.Fatalf("%s P=%d: schedule status %d: %s", op, p, rec.Code, body)
			}
			fmt.Fprintf(&out, "schedule %d bytes sha256 %x\n", len(body), sha256.Sum256(body))
			for _, format := range []string{"text", "json"} {
				q.Set("format", format)
				rec, body = get(t, h, "/v1/explain?"+q.Encode())
				if rec.Code != http.StatusOK {
					t.Fatalf("%s P=%d: explain %s status %d: %s", op, p, format, rec.Code, body)
				}
				fmt.Fprintf(&out, "explain %s:\n%s", format, body)
			}
		}
	}
	return out.Bytes()
}

// TestDaemonContractGolden: envelopes, schedule bodies and explain reports
// are byte-for-byte what the daemon answered when each cached result still
// held its compiled schedule. testdata/contract.txt was recorded from that
// daemon; only the schedule's JSON is cached now, and explain recompiles.
func TestDaemonContractGolden(t *testing.T) {
	got := contractTranscript(t)
	const golden = "testdata/contract.txt"
	if *updateContract {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon answers differ from %s:\n%s", golden, firstDiff(got, want))
	}
}

// firstDiff shows the first differing line of two transcripts.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\ngot  %q\nwant %q", i+1, gl, wl)
		}
	}
	return "equal"
}
