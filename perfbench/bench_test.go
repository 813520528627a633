package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// runTiny runs one workload at tiny sizes and returns its stamp and result.
func runTiny(t *testing.T, bin, workload string, seed int64, trace int) (map[string]any, result) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"-bin", bin, "-work", filepath.Join(t.TempDir(), "work"), "-root", "..", "-tiny",
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--seconds", "2", "--trace", strconv.Itoa(trace)}
	if err := run(args, &out); err != nil {
		t.Fatalf("%s trace=%d: %v", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var stamp struct{ Stamp map[string]any }
	var res result
	if len(lines) < 2 || json.Unmarshal(lines[len(lines)-2], &stamp) != nil || json.Unmarshal(lines[len(lines)-1], &res) != nil {
		t.Fatalf("%s: output does not end in a stamp and a result line:\n%s", workload, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%d: correct=%v failed=%d attempted=%d", workload, trace, res.Correct, res.Failed, res.Attempted)
	}
	return stamp.Stamp, res
}

func metricSet(ms map[string]metric) map[string]string {
	out := map[string]string{}
	for name, m := range ms {
		out[name] = m.Unit
	}
	return out
}

// TestTinyBenchmark builds the three binaries and runs every workload of
// BENCHMARK.json at tiny sizes, untraced and traced, checking that outputs
// verify, that each run prints exactly the metrics the file declares, and
// that the served cache counts repeat for a repeated seed.
func TestTinyBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		wantLayer[m.Name] = m.Unit
	}

	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"logpopt/cmd/logpservd", "logpopt/cmd/logpsched", "logpopt/cmd/logpconform")
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, msg)
	}

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := []string{"offline_1e6", "replay_1e5", "serve_cold", "serve_hot"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, harness runs %v", names, want)
	}
	for _, w := range names {
		_, res := runTiny(t, bin, w, 1, 0)
		if got := metricSet(res.Metrics); !reflect.DeepEqual(got, wantE2E) {
			t.Errorf("%s untraced metrics %v, BENCHMARK.json declares %v", w, got, wantE2E)
		}
		_, res = runTiny(t, bin, w, 1, 1)
		if got := metricSet(res.Metrics); !reflect.DeepEqual(got, wantLayer) {
			t.Errorf("%s traced metrics %v, BENCHMARK.json declares %v", w, got, wantLayer)
		}
	}
	for _, w := range []string{"serve_hot", "serve_cold"} {
		a, _ := runTiny(t, bin, w, 5, 0)
		b, _ := runTiny(t, bin, w, 5, 0)
		for _, k := range []string{"cache_timed", "encode_bytes"} {
			if !reflect.DeepEqual(a[k], b[k]) {
				t.Errorf("%s seed 5: %s %v then %v", w, k, a[k], b[k])
			}
		}
	}
}
