// Package gate compares the repository's own artifacts and decides which
// changes gate: benchmark result files (`go test -bench` output parsed into
// Result records, the engine behind `logpcheck benchjson`, `logpcheck
// benchdiff` and `make bench-gate`) and run reports (internal/obs/report,
// the engine behind `logpcheck reportdiff` and the telemetry server's
// /compare view).
//
// Every thresholded comparison goes through one rule, decide: a change
// from zero in the gated direction always gates and has no fraction; any
// other change gates when its fraction in the gated direction exceeds the
// threshold; a negative threshold only reports. Benchmark metrics gate
// only when they get worse, run-report fields on drift either way.
package gate

import (
	"math"
	"sort"
)

// direction is which way a value must move for the change to gate.
type direction int

const (
	either direction = iota // any drift: run-report fields
	up                      // growth: ns/op, B/op, peak_rss_bytes, ...
	down                    // a drop: rates, units ending in "/sec" or "/s"
)

// toward is the signed amount x moves in the gated direction.
func (d direction) toward(x float64) float64 {
	switch d {
	case up:
		return x
	case down:
		return -x
	}
	return math.Abs(x)
}

// decide applies the gating rule to one value moving from old to new under
// threshold th. frac is the signed relative change (new-old)/old, NaN when
// old is zero: a change from zero has no meaningful fraction.
func decide(old, new, th float64, dir direction) (frac float64, gated bool) {
	if old == 0 {
		return math.NaN(), th >= 0 && dir.toward(new) > 0
	}
	frac = (new - old) / old
	return frac, th >= 0 && dir.toward(frac) > th
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
