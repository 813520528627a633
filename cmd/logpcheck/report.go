package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"logpopt/internal/gate"
	"logpopt/internal/obs/report"
	"logpopt/internal/obs/runstore"
)

// reportCheck validates run-report JSON files: each must strictly decode
// against the current report schema (unknown fields rejected) and pass its
// consistency checks — gap equals finish minus bound, the causal breakdown
// sums to the finish, quantiles are ordered, series aggregates are
// coherent.
func reportCheck(args []string, _ io.Reader, stdout, stderr io.Writer) int {
	return eachFile("report", args, stdout, stderr, func(path string) (string, error) {
		r, err := report.ReadFile(path)
		if err != nil {
			return "", err
		}
		bound := "no closed-form bound"
		if r.Bound >= 0 {
			bound = fmt.Sprintf("bound %d (gap %d)", r.Bound, r.Gap)
		}
		return fmt.Sprintf("%s %s P=%d finish %d, %s, %d series, %d violations",
			r.Tool, r.Op, r.Machine.P, r.Finish, bound, len(r.Timeseries), r.Violations), nil
	})
}

// reportdiff compares run reports and gates on drift (gate.CompareReports),
// in one of three argument shapes:
//
//	reportdiff old.json new.json     compare two report files
//	reportdiff storeA/ storeB/      compare the latest run of every key
//	                                shared by two run stores (-runstore dirs)
//	reportdiff store/               compare each key's latest run against
//	                                its predecessor within one store
//
// Identical runs give an empty verdict and exit 0. A negative threshold
// disables that gate; -v still lists the delta.
func reportdiff(args []string, _ io.Reader, stdout, stderr io.Writer) int {
	gated, err := diffReports(args, stdout, stderr)
	switch {
	case err != nil:
		fmt.Fprintf(stderr, "logpcheck reportdiff: %v\n", err)
		return 2
	case gated:
		return 1
	}
	return 0
}

// diffReports executes one comparison and reports whether anything gated.
// Usage and I/O problems come back as errors (exit 2); drift is the boolean
// (exit 1).
func diffReports(args []string, stdout, stderr io.Writer) (bool, error) {
	fs := flag.NewFlagSet("logpcheck reportdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		finish     = fs.Float64("finish", gate.DefaultReport.Finish, "fractional threshold on the finish time (negative: report only)")
		gap        = fs.Float64("gap", gate.DefaultReport.Gap, "fractional threshold on the gap to the closed-form bound")
		breakdown  = fs.Float64("breakdown", gate.DefaultReport.Breakdown, "fractional threshold on each causal-breakdown component")
		quantile   = fs.Float64("quantile", gate.DefaultReport.Quantile, "fractional threshold on each port-stat quantile rung")
		violations = fs.Float64("violations", gate.DefaultReport.Violations, "fractional threshold on the violation count (0: exact)")
		verbose    = fs.Bool("v", false, "list non-gated drift too, not just gated fields")
		jsonOut    = fs.Bool("json", false, "emit the verdicts as one JSON array instead of tables")
	)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	th := gate.ReportThresholds{
		Finish:     *finish,
		Gap:        *gap,
		Breakdown:  *breakdown,
		Quantile:   *quantile,
		Violations: *violations,
	}

	var verdicts []*gate.Verdict
	var err error
	switch pos := fs.Args(); len(pos) {
	case 1:
		if !isDir(pos[0]) {
			return false, fmt.Errorf("%s is not a run store directory (one argument means: diff each key's latest run against its predecessor)", pos[0])
		}
		verdicts, err = diffWithin(pos[0], th)
	case 2:
		a, b := isDir(pos[0]), isDir(pos[1])
		switch {
		case a && b:
			verdicts, err = diffStores(pos[0], pos[1], th)
		case !a && !b:
			var v *gate.Verdict
			v, err = compare(pos[0], pos[1], readFile, readFile, th)
			verdicts = []*gate.Verdict{v}
		default:
			return false, fmt.Errorf("cannot compare a report file with a store directory (%s vs %s)", pos[0], pos[1])
		}
	default:
		return false, fmt.Errorf("want <old.json> <new.json>, <storeA> <storeB>, or <store>; got %d arguments", len(pos))
	}
	if err != nil {
		return false, err
	}

	gated := false
	for _, v := range verdicts {
		gated = gated || v.Gated > 0
	}
	if *jsonOut {
		if verdicts == nil {
			verdicts = []*gate.Verdict{} // one JSON array, even an empty one
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return gated, enc.Encode(verdicts)
	}
	for _, v := range verdicts {
		v.Write(stdout, *verbose)
	}
	if len(verdicts) == 0 {
		fmt.Fprintln(stdout, "nothing to compare (no key has two runs)")
	}
	return gated, nil
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// diffWithin compares, per key of one store, the latest run against its
// predecessor. Keys with a single run have nothing to compare and are
// skipped.
func diffWithin(dir string, th gate.ReportThresholds) ([]*gate.Verdict, error) {
	s, err := runstore.Open(dir)
	if err != nil {
		return nil, err
	}
	var out []*gate.Verdict
	for _, k := range s.Keys() {
		h := s.History(k)
		if len(h) < 2 {
			continue
		}
		prev, last := h[len(h)-2], h[len(h)-1]
		v, err := compare(prev.Name(), last.Name(), s.Get, s.Get, th)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// diffStores compares the latest run of every key shared by two stores; a
// key on one side only gets a gate.Coverage verdict.
func diffStores(aDir, bDir string, th gate.ReportThresholds) ([]*gate.Verdict, error) {
	sa, err := runstore.Open(aDir)
	if err != nil {
		return nil, err
	}
	sb, err := runstore.Open(bDir)
	if err != nil {
		return nil, err
	}
	var out []*gate.Verdict
	for _, k := range sa.Keys() {
		ea, _ := sa.Latest(k)
		eb, ok := sb.Latest(k)
		if !ok {
			out = append(out, gate.Coverage(k.String(), ea.Name(), ""))
			continue
		}
		v, err := compare(ea.Name(), eb.Name(), sa.Get, sb.Get, th)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	for _, k := range sb.Keys() {
		if _, ok := sa.Latest(k); !ok {
			eb, _ := sb.Latest(k)
			out = append(out, gate.Coverage(k.String(), "", eb.Name()))
		}
	}
	return out, nil
}

// readFile reads a standalone report artifact.
func readFile(path string) (*report.Report, error) {
	r, err := report.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compare loads report a with loadA and report b with loadB and diffs them,
// labelling the verdict with both names.
func compare(a, b string, loadA, loadB func(string) (*report.Report, error), th gate.ReportThresholds) (*gate.Verdict, error) {
	ra, err := loadA(a)
	if err != nil {
		return nil, err
	}
	rb, err := loadB(b)
	if err != nil {
		return nil, err
	}
	v := gate.CompareReports(ra, rb, th)
	v.A, v.B = a, b
	return v, nil
}
