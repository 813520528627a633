// Package benchcmp compares two benchmark result files in the cmd/benchjson
// format and flags per-metric regressions against fractional thresholds. It
// is the engine behind cmd/benchdiff and `make bench-gate`.
package benchcmp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Result mirrors one cmd/benchjson record.
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

// Load reads a benchjson file. A file holding two results with one Key is
// rejected: Compare keys results in a map, so it would silently gate
// whichever duplicate came last.
func Load(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchcmp: %w", err)
	}
	var rs []Result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("benchcmp: %s: %w", path, err)
	}
	seen := make(map[string]bool, len(rs))
	for _, r := range rs {
		k := r.Key()
		if seen[k] {
			return nil, fmt.Errorf("benchcmp: %s: duplicate result %s", path, k)
		}
		seen[k] = true
	}
	return rs, nil
}

// Thresholds holds the allowed fractional regression per metric: 0.20 means
// a new value up to 20% worse than the old one passes. A negative threshold
// disables the check for that metric.
//
// Extra gates metrics from the benchjson "extra" map (values a benchmark
// reported via b.ReportMetric), keyed by unit string. Which direction counts
// as worse follows the unit: rates ending in "/sec" or "/s" regress when
// they DROP, everything else (peak_rss_bytes, nodes/op, ...) regresses when
// it grows, like ns/op. An extra metric missing from Extra is reported but
// never gates.
type Thresholds struct {
	NsPerOp  float64
	BytesOp  float64
	AllocsOp float64
	Extra    map[string]float64
}

// DefaultThresholds tolerate typical runner noise on time but hold
// allocation counts exact, since those are deterministic.
var DefaultThresholds = Thresholds{NsPerOp: 0.10, BytesOp: 0.10, AllocsOp: 0}

// HigherIsBetter reports whether a metric unit improves upward, i.e. whether
// a fractional drop rather than a fractional rise is the regression.
func HigherIsBetter(unit string) bool {
	return strings.HasSuffix(unit, "/sec") || strings.HasSuffix(unit, "/s")
}

// Delta is one metric of one benchmark present in both files.
type Delta struct {
	Key        string // package.Name-gomaxprocs
	Metric     string // "ns/op", "B/op", "allocs/op", or an extra unit
	Old, New   float64
	Frac       float64 // (new-old)/old; +Inf when old == 0 and new > 0
	Regression bool
}

// Report is the outcome of a comparison.
type Report struct {
	Deltas      []Delta
	OnlyOld     []string // benchmarks that disappeared
	OnlyNew     []string // benchmarks with no baseline
	Regressions int
}

func frac(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return new // +100%/unit scale is meaningless; any growth from 0 counts
	}
	return (new - old) / old
}

// Compare diffs new against old under th. Benchmarks are matched by
// package, name, and GOMAXPROCS; unmatched entries are reported but are not
// regressions.
func Compare(old, new []Result, th Thresholds) *Report {
	om := map[string]Result{}
	for _, r := range old {
		om[r.Key()] = r
	}
	nm := map[string]Result{}
	for _, r := range new {
		nm[r.Key()] = r
	}
	rep := &Report{}
	keys := make([]string, 0, len(om))
	for k := range om {
		if _, ok := nm[k]; ok {
			keys = append(keys, k)
		} else {
			rep.OnlyOld = append(rep.OnlyOld, k)
		}
	}
	for k := range nm {
		if _, ok := om[k]; !ok {
			rep.OnlyNew = append(rep.OnlyNew, k)
		}
	}
	sort.Strings(keys)
	sort.Strings(rep.OnlyOld)
	sort.Strings(rep.OnlyNew)
	for _, k := range keys {
		o, n := om[k], nm[k]
		for _, m := range []struct {
			name     string
			old, new float64
			th       float64
		}{
			{"ns/op", o.NsPerOp, n.NsPerOp, th.NsPerOp},
			{"B/op", float64(o.BytesPerOp), float64(n.BytesPerOp), th.BytesOp},
			{"allocs/op", float64(o.AllocsOp), float64(n.AllocsOp), th.AllocsOp},
		} {
			if m.old == 0 && m.new == 0 {
				continue // metric not recorded (e.g. no -benchmem)
			}
			d := Delta{Key: k, Metric: m.name, Old: m.old, New: m.new, Frac: frac(m.old, m.new)}
			d.Regression = m.th >= 0 && d.Frac > m.th
			if d.Regression {
				rep.Regressions++
			}
			rep.Deltas = append(rep.Deltas, d)
		}
		// Extra metrics: compare every unit recorded in both results, in a
		// stable order; gate only the units th.Extra names.
		units := make([]string, 0, len(o.Extra))
		for u := range o.Extra {
			if _, ok := n.Extra[u]; ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			ov, nv := o.Extra[u], n.Extra[u]
			if ov == 0 && nv == 0 {
				continue
			}
			d := Delta{Key: k, Metric: u, Old: ov, New: nv, Frac: frac(ov, nv)}
			if eth, gated := th.Extra[u]; gated && eth >= 0 {
				if HigherIsBetter(u) {
					d.Regression = -d.Frac > eth // regression is a drop
				} else {
					d.Regression = d.Frac > eth
				}
			}
			if d.Regression {
				rep.Regressions++
			}
			rep.Deltas = append(rep.Deltas, d)
		}
	}
	return rep
}

// Write renders the report as a table, one line per metric, flagging
// regressions. With verbose false only regressions and unmatched benchmarks
// are listed.
func (rep *Report) Write(w io.Writer, verbose bool) {
	for _, d := range rep.Deltas {
		if !d.Regression && !verbose {
			continue
		}
		flag := "ok        "
		if d.Regression {
			flag = "REGRESSION"
		}
		fmt.Fprintf(w, "%s  %-48s %-10s %12.4g -> %-12.4g %+7.1f%%\n",
			flag, d.Key, d.Metric, d.Old, d.New, 100*d.Frac)
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
