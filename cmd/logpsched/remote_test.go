package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"logpopt/internal/obs"
	"logpopt/internal/serve/sched"
)

// remoteServer boots an in-process sched.API over HTTP — the same handler
// set cmd/logpservd mounts — and returns its base URL.
func remoteServer(t *testing.T) string {
	t.Helper()
	reg := obs.NewRegistry()
	a := sched.NewAPI(sched.Options{Cache: sched.NewCache(0, reg), Registry: reg})
	a.SetReady(true)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestRemoteByteIdentical: the thin-client contract — `-remote -render json`
// must emit exactly the bytes a local solve emits, for every op and for
// spellings whose extra flags canonicalize away.
func TestRemoteByteIdentical(t *testing.T) {
	url := remoteServer(t)
	cases := [][]string{
		{"-op", "broadcast", "-P", "16", "-L", "6", "-o", "2", "-g", "4"},
		{"-op", "binomial", "-P", "9", "-L", "5", "-o", "1", "-g", "3"},
		{"-op", "alltoall", "-P", "6", "-L", "6", "-o", "2", "-g", "4", "-k", "2"},
		{"-op", "kitem", "-P", "10", "-L", "3", "-k", "8"},
		{"-op", "continuous", "-P", "35", "-L", "2", "-k", "4"}, // Theorem 3.5 fallback
		{"-op", "summation", "-P", "8", "-L", "6", "-o", "2", "-g", "4", "-t", "28"},
		{"-op", "broadcast", "-P", "600"},
		{"-op", "broadcast", "-k", "7", "-t", "5"},
		{"-op", "kitem", "-o", "3", "-g", "9"},
		{"-postal", "-op", "scan"},
		{"-op", "personalized", "-k", "3"},
	}
	for _, op := range sched.Ops {
		args := []string{"-op", op, "-P", "12", "-L", "3", "-o", "1", "-g", "2"}
		switch {
		case op == "summation":
			args = append(args, "-t", "28")
		case sched.KOp(op):
			args = append(args, "-k", "3")
		}
		cases = append(cases, args)
	}
	for _, args := range cases {
		local, err := exec(t, args...)
		if err != nil {
			t.Fatalf("local %v: %v", args, err)
		}
		remote, err := exec(t, append(args, "-remote", url)...)
		if err != nil {
			t.Fatalf("remote %v: %v", args, err)
		}
		if local != remote {
			t.Fatalf("%v: remote output differs from local\nlocal  %d bytes\nremote %d bytes", args, len(local), len(remote))
		}
	}
}

// TestRemoteNonJSONRenders: other renders parse the fetched schedule and
// render locally, matching the local pipeline.
func TestRemoteNonJSONRenders(t *testing.T) {
	url := remoteServer(t)
	for _, render := range []string{"gantt", "table", "svg"} {
		local, err := exec(t, "-op", "broadcast", "-P", "8", "-render", render)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := exec(t, "-op", "broadcast", "-P", "8", "-render", render, "-remote", url)
		if err != nil {
			t.Fatal(err)
		}
		if local != remote {
			t.Fatalf("render %s differs between local and remote", render)
		}
	}
}

// TestRemoteRejections: modes that need a local solve refuse -remote, bad
// URLs fail with a flag-shaped message, and server-side errors surface.
func TestRemoteRejections(t *testing.T) {
	url := remoteServer(t)
	for _, args := range [][]string{
		{"-remote", url, "-explain"},
		{"-remote", url, "-trace", "/tmp/x.json"},
		{"-remote", url, "-report", "/tmp/x.json"},
		{"-remote", url, "-runstore", "/tmp/rs"},
	} {
		if _, err := exec(t, args...); err == nil || !strings.Contains(err.Error(), "-remote") {
			t.Errorf("%v: err = %v, want -remote rejection", args, err)
		}
	}
	if _, err := exec(t, "-remote", "not-a-url"); err == nil || !strings.Contains(err.Error(), "-remote") {
		t.Errorf("bad url: err = %v", err)
	}
	// Flag validation still happens client-side before any request.
	if _, err := exec(t, "-remote", url, "-op", "sideways"); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op with -remote: err = %v", err)
	}
	// A bad -render fails up front, before any request: the port-1 URL
	// would otherwise surface a dial error.
	for _, args := range [][]string{
		{"-remote", "http://127.0.0.1:1", "-render", "jsn"},
		{"-remote", "http://127.0.0.1:1", "-render", "tree"},
		{"-remote", "http://127.0.0.1:1", "-op", "kitem", "-P", "10", "-L", "3", "-render", "dot"},
	} {
		if _, err := exec(t, args...); err == nil || !strings.Contains(err.Error(), "render") {
			t.Errorf("%v: err = %v, want a -render rejection", args, err)
		}
	}
	// A server-side solve failure maps to a readable client error.
	if _, err := exec(t, "-remote", url, "-op", "continuous", "-P", "2", "-L", "1", "-k", "2"); err == nil || !strings.Contains(err.Error(), "remote schedule") {
		t.Errorf("server error: err = %v", err)
	}
}
