// Run reports: field-by-field comparison of two internal/obs/report
// documents into a machine-readable verdict.
//
// Fields split into three classes:
//
//   - gated: finish, the closed-form gap, every causal-breakdown
//     component, the port-stat quantiles, and the violation count. Each
//     has a fractional threshold; a relative change beyond it (in either
//     direction — an unexplained improvement is drift too) gates the
//     verdict, which is what flips `logpcheck reportdiff` to a non-zero
//     exit.
//   - identity: op, machine parameters, and schema version must match for
//     the comparison to mean anything; a mismatch is always gated.
//   - informational: tool, constructor, aggregate port stats, time-series
//     summaries, and the extra map are reported when they differ but
//     never gate — they explain drift rather than detect it.
//
// Two runs of the same deterministic case produce an Empty verdict: no
// deltas at all, not merely none gated.

package gate

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"logpopt/internal/obs/report"
	"logpopt/internal/obs/timeseries"
)

// ReportThresholds are the allowed fractional changes per gated field
// class: 0.05 passes anything within ±5% of the old value. A change from
// zero always gates. A negative threshold disables the gate for that
// class; the delta is still reported.
type ReportThresholds struct {
	Finish     float64 // finish time
	Gap        float64 // finish minus closed-form bound
	Breakdown  float64 // each causal component
	Quantile   float64 // each port-stat quantile rung
	Violations float64 // violation count (0 = exact)
}

// DefaultReport tolerates nothing on violations (deterministic), is tight
// on the finish (the certified outcome), and leaves headroom on the noisier
// distribution tails.
var DefaultReport = ReportThresholds{
	Finish:     0.02,
	Gap:        0.05,
	Breakdown:  0.10,
	Quantile:   0.20,
	Violations: 0,
}

// Delta is one field that differs between the two reports. Old and New are
// rendered values (numeric fields render as integers or floats, identity
// fields as strings); Frac is the signed relative change, absent for
// non-numeric fields and for changes from zero.
type Delta struct {
	Field string   `json:"field"`
	Old   string   `json:"old"`
	New   string   `json:"new"`
	Frac  *float64 `json:"frac,omitempty"`
	Gated bool     `json:"gated"`
}

// Verdict is the outcome of one comparison. A and B label the compared
// reports (paths or store entry names).
type Verdict struct {
	A      string  `json:"a,omitempty"`
	B      string  `json:"b,omitempty"`
	Deltas []Delta `json:"deltas"`
	Gated  int     `json:"gated"`
}

// Empty reports whether the two reports were identical in every compared
// field.
func (v *Verdict) Empty() bool { return len(v.Deltas) == 0 }

// add records a string-valued delta.
func (v *Verdict) add(field, old, new string, gated bool) {
	if gated {
		v.Gated++
	}
	v.Deltas = append(v.Deltas, Delta{Field: field, Old: old, New: new, Gated: gated})
}

// addNum records a numeric delta when old != new, gating on drift either
// way under th.
func (v *Verdict) addNum(field string, old, new float64, th float64) {
	if old == new {
		return
	}
	frac, gated := decide(old, new, th, either)
	v.add(field, trim(old), trim(new), gated)
	if !math.IsNaN(frac) {
		v.Deltas[len(v.Deltas)-1].Frac = &frac
	}
}

// Coverage records a run key present on only one side of a store
// comparison; an empty name marks the missing side. A key the old side has
// and the new side lost gates — lost coverage can hide a regression; a key
// only the new side has is informational.
func Coverage(key, old, new string) *Verdict {
	v := &Verdict{A: old, B: new}
	if old == "" {
		v.A = "absent"
	}
	if new == "" {
		v.B = "absent"
	}
	v.add("key["+key+"]", v.A, v.B, new == "")
	return v
}

// trim renders a float without a trailing ".000000" for integral values.
func trim(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

// CompareReports diffs b against a under th. a is the reference ("old")
// side.
func CompareReports(a, b *report.Report, th ReportThresholds) *Verdict {
	v := &Verdict{}

	// Identity: these must match for any other delta to be meaningful.
	if a.Version != b.Version {
		v.add("version", fmt.Sprint(a.Version), fmt.Sprint(b.Version), true)
	}
	if a.Op != b.Op {
		v.add("op", a.Op, b.Op, true)
	}
	if a.Machine != b.Machine {
		v.add("machine", machineString(a.Machine), machineString(b.Machine), true)
	}
	if a.Tool != b.Tool {
		v.add("tool", a.Tool, b.Tool, false)
	}
	if a.Constructor != b.Constructor {
		v.add("constructor", a.Constructor, b.Constructor, false)
	}

	// The gated outcome fields.
	v.addNum("finish", float64(a.Finish), float64(b.Finish), th.Finish)
	v.addNum("bound", float64(a.Bound), float64(b.Bound), 0) // closed form changed: always worth gating exactly
	v.addNum("gap", float64(a.Gap), float64(b.Gap), th.Gap)
	v.addNum("violations", float64(a.Violations), float64(b.Violations), th.Violations)

	compareBreakdown(v, a.Breakdown, b.Breakdown, th)
	compareStats(v, a.Stats, b.Stats, th)
	compareSeries(v, a.Timeseries, b.Timeseries)
	compareExtra(v, a.Extra, b.Extra)
	return v
}

func machineString(m report.Machine) string {
	return fmt.Sprintf("P=%d L=%d o=%d g=%d", m.P, m.L, m.O, m.G)
}

func compareBreakdown(v *Verdict, a, b *report.Breakdown, th ReportThresholds) {
	switch {
	case a == nil && b == nil:
		return
	case a == nil || b == nil:
		// A breakdown appearing or vanishing means the analyzer and engine
		// started (dis)agreeing on the finish — always worth gating.
		v.add("breakdown", presence(a != nil), presence(b != nil), true)
		return
	}
	for _, c := range []struct {
		name     string
		old, new int64
	}{
		{"breakdown.latency", a.Latency, b.Latency},
		{"breakdown.overhead", a.Overhead, b.Overhead},
		{"breakdown.gap", a.Gap, b.Gap},
		{"breakdown.compute", a.Compute, b.Compute},
		{"breakdown.origin", a.Origin, b.Origin},
		{"breakdown.wait", a.Wait, b.Wait},
	} {
		v.addNum(c.name, float64(c.old), float64(c.new), th.Breakdown)
	}
}

func compareStats(v *Verdict, a, b *report.Stats, th ReportThresholds) {
	switch {
	case a == nil && b == nil:
		return
	case a == nil || b == nil:
		v.add("stats", presence(a != nil), presence(b != nil), false)
		return
	}
	// Aggregates are informational: a changed send count without a changed
	// finish explains itself on inspection, it is not a regression per se.
	v.addNum("stats.sends", float64(a.Sends), float64(b.Sends), -1)
	v.addNum("stats.recvs", float64(a.Recvs), float64(b.Recvs), -1)
	v.addNum("stats.busy_cycles", float64(a.BusyCycles), float64(b.BusyCycles), -1)
	v.addNum("stats.port_util_finish", a.PortUtilFinish, b.PortUtilFinish, -1)
	v.addNum("stats.max_queue", float64(a.MaxQueue), float64(b.MaxQueue), -1)
	// The per-processor quantile ladders gate: they are the report's view
	// of load balance, and a drifting p90 busy time is a real regression
	// even when the finish holds.
	compareQuantiles(v, "stats.proc_busy", a.ProcBusy, b.ProcBusy, th)
	compareQuantiles(v, "stats.proc_idle", a.ProcIdle, b.ProcIdle, th)
}

func compareQuantiles(v *Verdict, prefix string, a, b report.Quantiles, th ReportThresholds) {
	for _, c := range []struct {
		name     string
		old, new int64
	}{
		{".min", a.Min, b.Min},
		{".p50", a.P50, b.P50},
		{".p90", a.P90, b.P90},
		{".p99", a.P99, b.P99},
		{".max", a.Max, b.Max},
	} {
		v.addNum(prefix+c.name, float64(c.old), float64(c.new), th.Quantile)
	}
}

func compareSeries(v *Verdict, a, b []timeseries.SeriesSummary) {
	am := map[string]timeseries.SeriesSummary{}
	for _, s := range a {
		am[s.Name] = s
	}
	bm := map[string]timeseries.SeriesSummary{}
	for _, s := range b {
		bm[s.Name] = s
	}
	for _, s := range a {
		o, ok := bm[s.Name]
		if !ok {
			v.add("timeseries."+s.Name, "present", "absent", false)
			continue
		}
		if s != o {
			v.add("timeseries."+s.Name,
				fmt.Sprintf("count=%d last=%d range=[%d,%d]", s.Count, s.Last, s.Min, s.Max),
				fmt.Sprintf("count=%d last=%d range=[%d,%d]", o.Count, o.Last, o.Min, o.Max),
				false)
		}
	}
	for _, s := range b {
		if _, ok := am[s.Name]; !ok {
			v.add("timeseries."+s.Name, "absent", "present", false)
		}
	}
}

// compareExtra reports the extra keys that differ, in sorted key order so
// that the same comparison always renders the same verdict.
func compareExtra(v *Verdict, a, b map[string]any) {
	union := make(map[string]bool, len(a)+len(b))
	for k := range a {
		union[k] = true
	}
	for k := range b {
		union[k] = true
	}
	for _, k := range sortedKeys(union) {
		av, inA := a[k]
		bv, inB := b[k]
		switch {
		case !inB:
			v.add("extra."+k, fmt.Sprint(av), "absent", false)
		case !inA:
			v.add("extra."+k, "absent", fmt.Sprint(bv), false)
		case fmt.Sprint(av) != fmt.Sprint(bv):
			v.add("extra."+k, fmt.Sprint(av), fmt.Sprint(bv), false)
		}
	}
}

func presence(has bool) string {
	if has {
		return "present"
	}
	return "absent"
}

// Write renders the verdict as a table, one line per delta, in the
// benchmark report's shape. With verbose false only gated deltas are
// listed; the summary line always prints.
func (v *Verdict) Write(w io.Writer, verbose bool) {
	label := ""
	if v.A != "" || v.B != "" {
		label = fmt.Sprintf(" (%s vs %s)", v.A, v.B)
	}
	for _, d := range v.Deltas {
		if !d.Gated && !verbose {
			continue
		}
		flag := "drift"
		if d.Gated {
			flag = "GATED"
		}
		frac := ""
		if d.Frac != nil {
			frac = fmt.Sprintf(" %+7.1f%%", 100**d.Frac)
		}
		fmt.Fprintf(w, "%-5s  %-28s %14s -> %-14s%s\n", flag, d.Field, d.Old, d.New, frac)
	}
	if v.Empty() {
		fmt.Fprintf(w, "reports identical%s\n", label)
		return
	}
	fmt.Fprintf(w, "%d field(s) differ, %d gated%s\n", len(v.Deltas), v.Gated, label)
}

// WriteJSON emits the verdict as one JSON document.
func (v *Verdict) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
