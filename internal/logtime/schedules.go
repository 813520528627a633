package logtime

import (
	"fmt"

	"logpopt/internal/combine"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/schedule"
	"logpopt/internal/summation"
)

// BroadcastSchedule returns the optimal single-item broadcast schedule for
// the machine via the search-free constructor — event for event identical to
// core.BroadcastSchedule.
func BroadcastSchedule(m logp.Machine, item int) *schedule.Schedule {
	s, err := core.TreeSchedule(Tree(m, m.P), item, nil, 0)
	if err != nil {
		panic(err) // identity assignment can't mismatch
	}
	return s
}

// ReduceSchedule returns the all-to-one reduction (reversed optimal
// broadcast tree) via the search-free constructor.
func ReduceSchedule(m logp.Machine, p int) *schedule.Schedule {
	return combine.ReduceScheduleWith(m, p, Tree)
}

// ScanSchedule returns the two-sweep prefix scan via the search-free
// constructor.
func ScanSchedule(m logp.Machine, p int) *schedule.Schedule {
	return combine.ScanScheduleWith(m, p, Tree)
}

// SummationBuild constructs the optimal summation plan for deadline t via
// the search-free constructor — identical to summation.Build's plan.
func SummationBuild(m logp.Machine, t logp.Time) (*summation.Plan, error) {
	return summation.BuildWith(m, t, Tree)
}

// SummationCapacity returns Lemma 5.1's n(t) — the operand capacity of the
// machine at deadline t — computed in closed form from the lazy machine's
// counting tables, with no tree built at all: the included nodes' marginal
// contributions Σ (t - label - o) are summed per label group.
func SummationCapacity(m logp.Machine, t logp.Time) int64 {
	if err := summation.Validate(m); err != nil {
		panic(err)
	}
	if t < 0 {
		return 0
	}
	maxLabel := t - m.O - 1
	if maxLabel < 0 {
		return int64(t) + 1 // the root alone, folding one operand per cycle
	}
	b := For(summation.Lazy(m))
	p := b.Count(maxLabel, int64(m.P))
	if p > int64(m.P) {
		p = int64(m.P)
	}
	if p < 1 {
		p = 1
	}
	n := int64(m.O) + 1
	b.mu.Lock()
	remaining := p
	for pi := 0; pi < len(b.pts) && remaining > 0; pi++ {
		pt := b.pts[pi]
		if pt.label > maxLabel {
			break
		}
		cnt := pt.g
		if cnt > remaining {
			cnt = remaining
		}
		n += cnt * int64(t-pt.label-m.O)
		remaining -= cnt
	}
	b.mu.Unlock()
	if n < int64(t)+1 && p == 1 {
		n = int64(t) + 1
	}
	return n
}

// SummationTimeFor returns the minimum deadline t with capacity >= n, like
// summation.TimeFor but through the closed-form capacity; n >= 1.
func SummationTimeFor(m logp.Machine, n int64) logp.Time {
	if n < 1 {
		panic(fmt.Sprintf("logtime: SummationTimeFor requires n >= 1, got %d", n))
	}
	lo, hi := logp.Time(0), logp.Time(n-1)
	for lo < hi {
		mid := (lo + hi) / 2
		if SummationCapacity(m, mid) >= n {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// SumNode describes one processor's role in the optimal summation plan for
// deadline t, answerable per rank in O(log P) without building the plan:
// when it sends its partial sum, to whom, which children's partial sums it
// folds (arrival times ascending in child order reversed — child i's fold
// completes at SendAt - i*stride), and how many local operands it folds in
// its remaining cycles.
type SumNode struct {
	Rank   int
	SendAt logp.Time   // partial-sum send time T - label (fictitious for the root: T)
	Parent int         // parent rank; -1 for the root
	Arrive []logp.Time // per child (in tree child order): message arrival time
	Folds  []int       // per child: the child's rank
	Locals int64       // local operands folded (including the free first operand)
}

// SummationNode answers the per-rank summation query for deadline t. The
// plan it describes is exactly summation.Build's: rank r of the lazy
// machine's ß(p), where p is the admitted node count for deadline t.
func SummationNode(m logp.Machine, t logp.Time, rank int) SumNode {
	if err := summation.Validate(m); err != nil {
		panic(err)
	}
	if t < 0 {
		panic(fmt.Sprintf("logtime: negative deadline %d", t))
	}
	lm := summation.Lazy(m)
	b := For(lm)
	p := 1
	if maxLabel := t - m.O - 1; maxLabel >= 0 {
		if c := b.Count(maxLabel, int64(m.P)); c > 1 {
			p = int(c)
			if p > m.P {
				p = m.P
			}
		}
	}
	ni := b.Node(p, rank)
	sn := SumNode{Rank: rank, SendAt: t - ni.Label, Parent: ni.Parent}
	stride := core.SendStride(lm)
	busy := int64(0)
	for i, c := range ni.Children {
		arrive := sn.SendAt - logp.Time(i)*stride - m.O - 1
		sn.Arrive = append(sn.Arrive, arrive)
		sn.Folds = append(sn.Folds, c)
		busy += int64(m.O) + 1
	}
	// Local adds fill every cycle of [0, SendAt) outside the disjoint
	// reception windows (stride >= o+1 keeps them disjoint and above 0).
	sn.Locals = 1 + int64(sn.SendAt) - busy
	return sn
}
