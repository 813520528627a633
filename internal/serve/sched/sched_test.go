package sched

import (
	"testing"

	"logpopt/internal/conform"
	"logpopt/internal/core"
	"logpopt/internal/logtime"
)

// TestBaselineBoundIsTreeHeight: the broadcast baselines report the optimal
// tree's height as their bound without building the tree; it must be what
// either tree builder's tree says.
func TestBaselineBoundIsTreeHeight(t *testing.T) {
	builders := map[string]core.TreeBuilder{"logtime": logtime.Tree, "search": core.OptimalTree}
	for _, mc := range conform.ConstructorMachines() {
		m := mc.M
		for name, tb := range builders {
			want := tb(m, m.P).MaxLabel()
			for _, op := range []string{"linear", "flat", "binary", "binomial"} {
				c, err := Compile(m, op, 1, 0, tb)
				if err != nil {
					t.Fatalf("%s on %v: %v", op, m, err)
				}
				if c.Bound != want || !c.Baseline {
					t.Errorf("%s on %v: bound %d baseline %v, want %s tree height %d", op, m, c.Bound, c.Baseline, name, want)
				}
			}
		}
	}
}
