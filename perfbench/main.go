// Command perfbench is the repository's end-to-end benchmark. It drives the
// real logpservd, logpsched and logpconform binaries as child processes from
// one load-generating process and prints one JSON result line:
//
//	perfbench -bin DIR -work DIR --workload serve_hot --seed 1 --seconds 15 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	serve_hot    full-body fetches from a fixed warm set on a prefilled daemon
//	serve_cold   requests that never share a canonical cache key
//	offline_1e6  logpsched -op broadcast -P 1000000 -render json
//	replay_1e5   logpconform -paper=false -seeds 0 -scale 100000
//
// --seconds fixes the amount of work (operations = seconds × the workload's
// nominal rate), not a clock window. --trace 0 prints the end-to-end
// metrics; --trace 1 prints the per-layer metrics of a traced run.
// run.sh builds the binaries and this command, then runs it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"logpopt/internal/obs"
)

// sizes is the problem scale; tinySizes keeps the same shape small enough
// for the package's own test.
type sizes struct {
	hotKeys     []hotKey
	coldMaxP    int
	offlineP    int
	replayScale int
}

var fullSizes = sizes{
	// 66 MB of bodies against a 256 MiB budget, but shard 15 of 16 (16 MiB)
	// holds only broadcast P=100000 (11.75 MB) and reduce P=99974 (12.3 MB),
	// which cannot coexist: each round evicts and re-solves both. The other
	// keys always hit. Thirteen keys, equally often, put p50 inside the
	// three ~5 MB keys and p90 inside the faster of the two re-solves, not
	// on a boundary between two keys.
	hotKeys: []hotKey{
		{"broadcast", 2000}, {"reduce", 2000}, {"scan", 2000},
		{"broadcast", 10000}, {"reduce", 10000},
		{"broadcast", 40000}, {"reduce", 40000}, {"scan", 20000},
		{"scan", 30000}, {"broadcast", 65000}, {"scan", 40000},
		{"broadcast", 100000}, {"reduce", 99974},
	},
	coldMaxP:    20000,
	offlineP:    1000000,
	replayScale: 100000,
}

var tinySizes = sizes{
	hotKeys:     []hotKey{{"broadcast", 600}, {"reduce", 1000}, {"scan", 2000}},
	coldMaxP:    2000,
	offlineP:    1000,
	replayScale: 1000,
}

// Set-up is measured this many times per run and reported as the median:
// serve_hot's set-up includes a 66 MB prefill, the others are one boot or
// one trivial CLI run of a few milliseconds, whose run-to-run spread is a
// quarter of its median, so they take many samples.
const (
	hotSetups   = 5
	quickSetups = 41
)

// rates are each workload's nominal operations per second on a 2-core
// machine; --seconds times the rate is the fixed number of operations.
var rates = map[string]float64{
	"serve_hot":   50,
	"serve_cold":  100,
	"offline_1e6": 1.3,
	"replay_1e5":  0.3,
}

// env is one benchmark run's configuration.
type env struct {
	bin, work   string
	workload    string
	seed        int64
	trace       bool
	sizes       sizes
	gomaxprocs  int
	daemonFlags []string
	detail      map[string]any // printed on the stamp line
}

// command builds a child process: pinned GOMAXPROCS, killed if the harness
// dies, run inside the work directory.
func (e *env) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Dir = e.work
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.gomaxprocs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// tracer returns the in-process span recorder of a traced run (nil
// otherwise).
func (e *env) tracer() *obs.Tracer {
	if !e.trace {
		return nil
	}
	return obs.NewTracer()
}

func rssMiB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	problems  []error
}

func (r *result) metric(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// problem records a failed check; any problem makes the result incorrect.
func (r *result) problem(err error) { r.problems = append(r.problems, err) }

// perLayer lists every per-layer metric with its unit; a traced run reports
// 0 for layers its workload does not reach.
var perLayer = [][2]string{
	{"sched.cache.hit_ratio", "frac"}, {"sched.cache.misses", "count"},
	{"sched.cache.evictions", "count"}, {"sched.cache.bytes", "bytes"},
	{"sched.http.duration_p50_ms", "ms"}, {"http.ttfb_ms", "ms"}, {"http.body_ms", "ms"},
	{"sched.canonicalize.us", "us"}, {"logtime.tables.us", "us"}, {"logtime.tree.us", "us"},
	{"core.search_tree.us", "us"}, {"sched.compile.us", "us"},
	{"schedule.encode.us", "us"}, {"schedule.encode.bytes", "bytes"},
	{"sim.replay.us", "us"}, {"sim.events", "count"}, {"sim.events_per_s", "1/s"},
	{"runtime.replay.us", "us"}, {"runtime.allocs", "count"},
	{"schedule.validate.us", "us"}, {"causal.analyze.us", "us"},
	{"gc.pause_ms", "ms"}, {"trace.overhead_frac", "frac"},
	{"stage.unaccounted_frac", "frac"}, {"failed_frac", "frac"},
}

// solveMetrics reports the in-process stage pass: mean µs per call of each
// layer, with the byte and event counts it produced.
func (e *env) solveMetrics(st *stages, out *result) {
	for _, name := range []string{
		"sched.canonicalize", "logtime.tables", "logtime.tree", "core.search_tree",
		"sched.compile", "schedule.encode", "sim.replay", "runtime.replay",
		"schedule.validate", "causal.analyze",
	} {
		out.metric(name+".us", st.mean(name), "us")
	}
	out.metric("schedule.encode.bytes", float64(st.bytes), "bytes")
	out.metric("sim.events", float64(st.events), "count")
	if t := st.total["sim.replay"]; t > 0 {
		out.metric("sim.events_per_s", float64(st.events)/(t/1e6), "1/s")
	}
	out.metric("runtime.allocs", float64(st.allocs), "count")
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fl.String("workload", "", "serve_hot, serve_cold, offline_1e6 or replay_1e5")
		seed     = fl.Int64("seed", 1, "input seed")
		seconds  = fl.Float64("seconds", 15, "work to do, as seconds at the workload's nominal rate")
		trace    = fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
		bin      = fl.String("bin", "", "`dir` holding the logpservd, logpsched and logpconform binaries")
		work     = fl.String("work", "", "scratch `dir` for daemon address files and traces")
		root     = fl.String("root", ".", "repository `dir` whose sources the result is stamped with")
		tiny     = fl.Bool("tiny", false, "tiny problem sizes (smoke test)")
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	rate, ok := rates[*workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown -workload %q", *workload)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *bin == "" || *work == "":
		return errors.New("-bin and -work are required")
	case !(*seconds > 0):
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	for _, name := range []string{"logpservd", "logpsched", "logpconform"} {
		if _, err := os.Stat(filepath.Join(*bin, name)); err != nil {
			return fmt.Errorf("binary missing (build it first, see run.sh): %w", err)
		}
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	e := &env{
		bin: *bin, work: *work, workload: *workload, seed: *seed, trace: *trace == 1,
		sizes: fullSizes, gomaxprocs: goruntime.NumCPU(), detail: map[string]any{},
	}
	if *tiny {
		e.sizes = tinySizes
	}
	n := int(math.Ceil(*seconds * rate))
	out, err := e.run(n)
	if err != nil {
		return err
	}
	stamp, err := e.stamp(*root)
	if err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"stamp": stamp}); err != nil {
		return err
	}
	return enc.Encode(out)
}

// run measures one workload with n operations.
func (e *env) run(n int) (*result, error) {
	out := &result{Metrics: map[string]metric{}}
	var gc0, gc1 goruntime.MemStats
	goruntime.ReadMemStats(&gc0)
	var err error
	switch e.workload {
	case "serve_hot":
		var prefill, timed []request
		if prefill, timed, err = hotPlan(e.seed, e.sizes.hotKeys, n); err == nil {
			err = e.runServed(prefill, timed, hotRounds*len(e.sizes.hotKeys), hotSetups, out)
		}
	case "serve_cold":
		var timed []request
		if timed, err = coldPlan(e.seed, n, e.sizes.coldMaxP); err == nil {
			err = e.runServed(nil, timed, coldBlock, quickSetups, out)
		}
	case "offline_1e6":
		err = e.runOffline(n, out)
	case "replay_1e5":
		err = e.runReplay(n, out)
	}
	if err != nil {
		return nil, err
	}
	goruntime.ReadMemStats(&gc1)
	if out.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	if e.trace {
		for _, m := range perLayer {
			if _, ok := out.Metrics[m[0]]; !ok {
				out.metric(m[0], 0, m[1])
			}
		}
		out.metric("gc.pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6, "ms")
		out.metric("failed_frac", float64(out.Failed)/float64(out.Attempted), "frac")
	}
	if out.Failed > 0 {
		out.problem(fmt.Errorf("%d of %d operations failed", out.Failed, out.Attempted))
	}
	out.Correct = len(out.problems) == 0
	return out, nil
}

// stamp identifies what was measured and where.
func (e *env) stamp(root string) (map[string]any, error) {
	src, err := sourceDigest(root)
	if err != nil {
		return nil, err
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	s := map[string]any{
		"workload":         e.workload,
		"seed":             e.seed,
		"trace":            e.trace,
		"nproc":            goruntime.NumCPU(),
		"child_gomaxprocs": e.gomaxprocs,
		"go_version":       goruntime.Version(),
		"commit":           commit,
		"source_sha256":    src,
	}
	if e.daemonFlags != nil {
		s["daemon_flags"] = strings.Join(e.daemonFlags, " ") + " (all others default: -shards 16 -cache-bytes 268435456)"
	}
	for k, v := range e.detail {
		s[k] = v
	}
	return s, nil
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// dot-directories such as the build directory), so a result identifies the
// code even in a checkout that is not a git repository.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
