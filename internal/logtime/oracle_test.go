package logtime_test

import (
	"reflect"
	"testing"

	"logpopt/internal/combine"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/summation"
)

// TestReduceScanIdentical: the reduction and the scan built on logtime's
// tree, combine's defaults, are event for event the ones expanded from the
// heap search's tree.
func TestReduceScanIdentical(t *testing.T) {
	for _, m := range logtime.Shapes {
		for _, p := range []int{1, 2, 5, m.P} {
			search := core.OptimalTree(m, p)
			if !reflect.DeepEqual(combine.ReduceSchedule(m, p), combine.ReduceScheduleWith(search)) {
				t.Fatalf("%v P=%d: reduce schedules differ", m, p)
			}
			if !reflect.DeepEqual(combine.ScanSchedule(m, p), combine.ScanScheduleWith(search)) {
				t.Fatalf("%v P=%d: scan schedules differ", m, p)
			}
		}
	}
}

// TestSummationIdentical: the summation plan built on logtime's tree of the
// lazy machine, summation.Build, is the plan built on the heap search's,
// for every deadline up to 40.
func TestSummationIdentical(t *testing.T) {
	for _, m := range logtime.Shapes {
		if summation.Validate(m) != nil {
			continue
		}
		for tt := logp.Time(0); tt <= 40; tt++ {
			want, err := summation.BuildWith(m, tt, core.OptimalTree)
			if err != nil {
				t.Fatalf("%v t=%d: %v", m, tt, err)
			}
			got, err := summation.Build(m, tt)
			if err != nil {
				t.Fatalf("%v t=%d: %v", m, tt, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v t=%d: summation plans differ", m, tt)
			}
		}
	}
}
