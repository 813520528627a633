// Benchmark results: the record `logpcheck benchjson` writes and
// `logpcheck benchdiff` compares.

package gate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark result record, the unit of a benchjson file.
// WallS is the measured wall time, Iterations × NsPerOp; Extra holds every
// other (value, unit) pair the benchmark reported via b.ReportMetric.
type Result struct {
	Name       string             `json:"name"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	WallS      float64            `json:"wall_s"`
	BytesPerOp int64              `json:"bytes_per_op,omitempty"`
	AllocsOp   int64              `json:"allocs_per_op,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// Key identifies a benchmark across files.
func (r Result) Key() string {
	return fmt.Sprintf("%s.%s-%d", r.Package, r.Name, r.GoMaxProcs)
}

// ParseBench reads `go test -bench` output and returns one Result per
// benchmark result line, each tagged with the package of the "pkg:" line
// above it. Lines that are not results are skipped, so unfiltered output
// can be fed in. procs is the GOMAXPROCS the run used; see parseLine. The
// slice is never nil, so an empty run encodes as [] rather than null.
func ParseBench(r io.Reader, procs int) ([]Result, error) {
	results := []Result{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "pkg:") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if r, ok := parseLine(line, procs); ok {
			r.Package = pkg
			results = append(results, r)
		}
	}
	return results, sc.Err()
}

// parseLine converts one benchmark result line. procs is the GOMAXPROCS the
// run used: a trailing "-procs" on the name is the framework's suffix and is
// stripped; any other trailing "-<digits>" belongs to the benchmark's own
// name (a sub-benchmark case) and is kept, with the run recorded as serial —
// go test only omits the suffix when GOMAXPROCS was 1.
func parseLine(line string, procs int) (Result, bool) {
	var r Result
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return r, false
	}
	name := fields[0]
	r.GoMaxProcs = 1
	if suffix := fmt.Sprintf("-%d", procs); procs != 1 && strings.HasSuffix(name, suffix) {
		r.GoMaxProcs = procs
		name = strings.TrimSuffix(name, suffix)
	}
	r.Name = name
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return r, false
	}
	r.Iterations = iters
	// Remaining fields come in (value, unit) pairs: ns/op, B/op, allocs/op.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsOp = int64(v)
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[fields[i+1]] = v
		}
	}
	r.WallS = float64(r.Iterations) * r.NsPerOp / 1e9
	return r, r.NsPerOp > 0
}

// LoadBench reads a benchjson file. A file holding two results with one Key
// is rejected: CompareBench keys results in a map, so it would silently gate
// whichever duplicate came last.
func LoadBench(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gate: %w", err)
	}
	var rs []Result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("gate: %s: %w", path, err)
	}
	seen := make(map[string]bool, len(rs))
	for _, r := range rs {
		k := r.Key()
		if seen[k] {
			return nil, fmt.Errorf("gate: %s: duplicate result %s", path, k)
		}
		seen[k] = true
	}
	return rs, nil
}

// BenchThresholds holds the allowed fractional regression per metric: 0.20
// means a new value up to 20% worse than the old one passes. A negative
// threshold disables the check for that metric.
//
// Extra gates metrics from the benchjson "extra" map (values a benchmark
// reported via b.ReportMetric), keyed by unit string. Which direction counts
// as worse follows the unit: rates ending in "/sec" or "/s" regress when
// they DROP, everything else (peak_rss_bytes, nodes/op, ...) regresses when
// it grows, like ns/op. An extra metric missing from Extra is reported but
// never gates.
type BenchThresholds struct {
	NsPerOp  float64
	BytesOp  float64
	AllocsOp float64
	Extra    map[string]float64
}

// DefaultBench tolerates typical runner noise on time but holds allocation
// counts exact, since those are deterministic.
var DefaultBench = BenchThresholds{NsPerOp: 0.10, BytesOp: 0.10, AllocsOp: 0}

// unitDirection is the way a metric unit gets worse: rates drop, everything
// else grows.
func unitDirection(unit string) direction {
	if strings.HasSuffix(unit, "/sec") || strings.HasSuffix(unit, "/s") {
		return down
	}
	return up
}

// BenchDelta is one metric of one benchmark present in both files.
type BenchDelta struct {
	Key        string // package.Name-gomaxprocs
	Metric     string // "ns/op", "B/op", "allocs/op", or an extra unit
	Old, New   float64
	Frac       float64 // (new-old)/old; NaN when old == 0 (no fraction)
	Regression bool
}

// BenchReport is the outcome of a benchmark comparison.
type BenchReport struct {
	Deltas      []BenchDelta
	OnlyOld     []string // benchmarks that disappeared
	OnlyNew     []string // benchmarks with no baseline
	Regressions int
}

// add records one metric under the gating rule. Metrics that are zero on
// both sides were not recorded (e.g. no -benchmem) and are skipped.
func (rep *BenchReport) add(key, metric string, old, new, th float64) {
	if old == 0 && new == 0 {
		return
	}
	d := BenchDelta{Key: key, Metric: metric, Old: old, New: new}
	d.Frac, d.Regression = decide(old, new, th, unitDirection(metric))
	if d.Regression {
		rep.Regressions++
	}
	rep.Deltas = append(rep.Deltas, d)
}

// CompareBench diffs new against old under th. Benchmarks are matched by
// package, name, and GOMAXPROCS; unmatched entries are reported but are not
// regressions.
func CompareBench(old, new []Result, th BenchThresholds) *BenchReport {
	om, nm := byKey(old), byKey(new)
	rep := &BenchReport{}
	for _, k := range sortedKeys(nm) {
		if _, ok := om[k]; !ok {
			rep.OnlyNew = append(rep.OnlyNew, k)
		}
	}
	for _, k := range sortedKeys(om) {
		o := om[k]
		n, ok := nm[k]
		if !ok {
			rep.OnlyOld = append(rep.OnlyOld, k)
			continue
		}
		rep.add(k, "ns/op", o.NsPerOp, n.NsPerOp, th.NsPerOp)
		rep.add(k, "B/op", float64(o.BytesPerOp), float64(n.BytesPerOp), th.BytesOp)
		rep.add(k, "allocs/op", float64(o.AllocsOp), float64(n.AllocsOp), th.AllocsOp)
		// Extra metrics: compare every unit recorded in both results; gate
		// only the units th.Extra names.
		for _, u := range sortedKeys(o.Extra) {
			nv, ok := n.Extra[u]
			if !ok {
				continue
			}
			eth, gated := th.Extra[u]
			if !gated {
				eth = -1
			}
			rep.add(k, u, o.Extra[u], nv, eth)
		}
	}
	return rep
}

func byKey(rs []Result) map[string]Result {
	m := make(map[string]Result, len(rs))
	for _, r := range rs {
		m[r.Key()] = r
	}
	return m
}

// Write renders the report as a table, one line per metric, flagging
// regressions. With verbose false only regressions and unmatched benchmarks
// are listed. A change from zero prints no percentage.
func (rep *BenchReport) Write(w io.Writer, verbose bool) {
	for _, d := range rep.Deltas {
		if !d.Regression && !verbose {
			continue
		}
		flag := "ok        "
		if d.Regression {
			flag = "REGRESSION"
		}
		frac := ""
		if !math.IsNaN(d.Frac) {
			frac = fmt.Sprintf(" %+7.1f%%", 100*d.Frac)
		}
		fmt.Fprintf(w, "%s  %-48s %-10s %12.4g -> %-12.4g%s\n",
			flag, d.Key, d.Metric, d.Old, d.New, frac)
	}
	for _, k := range rep.OnlyOld {
		fmt.Fprintf(w, "missing     %s (in old file only)\n", k)
	}
	for _, k := range rep.OnlyNew {
		fmt.Fprintf(w, "new         %s (no baseline)\n", k)
	}
	fmt.Fprintf(w, "%d benchmark metric(s) compared, %d regression(s)\n",
		len(rep.Deltas), rep.Regressions)
}
