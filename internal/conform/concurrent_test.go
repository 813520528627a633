package conform

import (
	"reflect"
	"slices"
	"testing"

	"logpopt/internal/logp"
	"logpopt/internal/par"
	"logpopt/internal/schedule"
)

// atWidth runs f with par's default parallelism set to n.
func atWidth(t *testing.T, n int, f func()) {
	t.Helper()
	old := par.Limit()
	par.SetLimit(n)
	defer par.SetLimit(old)
	f()
}

// wideWidth is the concurrent width the determinism tests compare against
// width 1: the default, but at least 2 so that one-CPU machines still run
// Check's stages on several goroutines.
func wideWidth() int { return max(par.Limit(), 2) }

// TestCheckDeterministicAcrossWidths requires Check to return the same
// diffs, in the same order, whether its stages run one after another or
// concurrently: on the paper cases, small scale cases, 200 generated seeds
// and the degenerate cases, whose divergent members carry several diffs
// each. Shrink must reach the same minimal case at both widths.
func TestCheckDeterministicAcrossWidths(t *testing.T) {
	cases := append(PaperCases(), ScaleCases(64, 1024)...)
	for seed := range int64(200) {
		cases = append(cases, Generate(seed))
	}
	cases = append(cases, degenerateCases()...)
	run := func(width int) (diffs [][]string, shrunk []Case) {
		atWidth(t, width, func() {
			ck := NewChecker()
			for _, c := range cases {
				d := ck.Check(c)
				diffs = append(diffs, d)
				if len(d) > 0 {
					shrunk = append(shrunk, Shrink(c, ck.Diverges))
				}
			}
		})
		return diffs, shrunk
	}
	serial, serialShrunk := run(1)
	wide, wideShrunk := run(wideWidth())
	divergent := 0
	for i, c := range cases {
		if !slices.Equal(serial[i], wide[i]) {
			t.Errorf("%s: width 1 diffs %q, width %d diffs %q", c.Name, serial[i], wideWidth(), wide[i])
		}
		if len(serial[i]) > 1 {
			divergent++
		}
	}
	if divergent == 0 {
		t.Fatal("no case with several diffs: the diff order went untested")
	}
	if !reflect.DeepEqual(serialShrunk, wideShrunk) {
		t.Fatalf("Shrink differs across widths:\nwidth 1: %+v\nwidth %d: %+v", serialShrunk, wideWidth(), wideShrunk)
	}
}

// TestCheckStagePanicReachesCaller feeds Check a machine with g = 0, on
// which the simulator divides by zero: the panic must reach the caller as a
// *par.StagePanic naming the same stage at both widths.
func TestCheckStagePanicReachesCaller(t *testing.T) {
	m := logp.Machine{P: 2, L: 6, O: 2, G: 0}
	s := &schedule.Schedule{M: m}
	s.Send(0, 0, 0, 1)
	s.Recv(1, m.O+m.L, 0, 0)
	c := Case{Name: "zero-gap", S: s, Origins: map[int]schedule.Origin{0: {Proc: 0}}}
	var stages []string
	for _, width := range []int{1, wideWidth()} {
		atWidth(t, width, func() {
			defer func() {
				sp, ok := recover().(*par.StagePanic)
				if !ok {
					t.Fatalf("width %d: Check did not panic with a *par.StagePanic", width)
				}
				stages = append(stages, sp.Stage)
			}()
			NewChecker().Check(c)
		})
	}
	if stages[0] != stages[1] || stages[0] == "" {
		t.Fatalf("panicking stage %q at width 1, %q concurrently", stages[0], stages[1])
	}
}
