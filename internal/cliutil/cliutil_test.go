package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logpopt/internal/obs"
)

func TestWriteError(t *testing.T) {
	err := WriteError("schedule JSON", "/nope/x.json", os.ErrPermission)
	want := "cannot write schedule JSON to /nope/x.json"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q missing %q", err, want)
	}
}

func TestWriteMetricsFile(t *testing.T) {
	obs.Default.Counter("cliutil.test.writes").Inc() // the registry starts empty in this process
	path := filepath.Join(t.TempDir(), "m.prom")
	if err := WriteMetricsFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("empty metrics snapshot")
	}
	if err := WriteMetricsFile(filepath.Join(path, "sub", "x.prom")); err == nil {
		t.Fatal("writing under a file path succeeded")
	}
}
