// Package sched is the scheduling service behind cmd/logpservd: the
// operation compiler shared with cmd/logpsched, a canonical cache key over
// (op, constructor, P, L, o, g, k, t), a sharded memory-bounded schedule
// cache with singleflight request coalescing, and an instrumented HTTP/JSON
// API (/v1/schedule, /v1/batch, /v1/explain) with RED metrics,
// request-scoped tracing, structured logging, and live introspection
// endpoints (/healthz, /readyz, /debug/inflight, /debug/cache).
//
// The compile layer here is the single source of truth for "what schedule
// answers (op, machine, k, t)": cmd/logpsched calls it for local solves and
// cmd/logpservd calls it behind the cache, so the thin-client -remote mode
// can diff service answers against local ones byte for byte.
package sched

import (
	"errors"
	"fmt"

	"logpopt/internal/alltoall"
	"logpopt/internal/baseline"
	"logpopt/internal/combine"
	"logpopt/internal/continuous"
	"logpopt/internal/core"
	"logpopt/internal/kitem"
	"logpopt/internal/logp"
	"logpopt/internal/obs/causal"
	"logpopt/internal/schedule"
	"logpopt/internal/summation"
)

// Ops lists every operation the compiler (and therefore the service and
// cmd/logpsched) accepts.
var Ops = []string{
	"broadcast", "linear", "flat", "binary", "binomial",
	"alltoall", "personalized", "scatter", "gather",
	"reduce", "scan", "kitem", "continuous", "summation",
}

// KnownOp reports whether op names a compilable operation.
func KnownOp(op string) bool {
	for _, o := range Ops {
		if o == op {
			return true
		}
	}
	return false
}

// PostalOp reports whether op is defined only in the postal model (o = 0,
// g = 1); for these the machine's o and g are forced, so requests that
// differ only there are the same question.
func PostalOp(op string) bool { return op == "kitem" || op == "continuous" }

// KOp reports whether op consumes the item count k.
func KOp(op string) bool {
	return op == "kitem" || op == "alltoall" || op == "continuous"
}

// TreeOp reports whether op's answer (schedule or bound) is built from the
// optimal broadcast tree, i.e. whether the request's constructor field
// applies. Non-tree ops canonicalize the constructor away.
func TreeOp(op string) bool {
	switch op {
	case "broadcast", "reduce", "scan", "summation",
		"linear", "flat", "binary", "binomial":
		return true
	}
	return false
}

// Compiled is one answered schedule question: the schedule, the operation's
// closed-form lower bound (-1 when none is known), and whether the bound
// came from the optimal broadcast tree rather than the op's own closed form
// (true for the broadcast baselines, whose -explain gap is attributed
// against the optimal tree's breakdown).
type Compiled struct {
	S        *schedule.Schedule
	Bound    logp.Time
	Baseline bool
}

// Compile builds op's schedule on m. k is the item count for kitem,
// alltoall, and continuous; deadline is the summation deadline; tb builds
// the optimal broadcast tree for the ops that need one. The arms mirror the
// paper's sections exactly — this is cmd/logpsched's former switch, factored
// out so the service computes the identical artifact.
func Compile(m logp.Machine, op string, k int, deadline logp.Time, tb core.TreeBuilder) (*Compiled, error) {
	if KOp(op) && k < 1 {
		return nil, fmt.Errorf("op %s: k must be at least 1, got %d", op, k)
	}
	c := &Compiled{Bound: -1}
	var err error
	switch op {
	case "broadcast":
		tr := tb(m, m.P)
		c.S, err = core.TreeSchedule(tr, 0, nil, 0)
		if err != nil {
			return nil, err
		}
		c.Bound = tr.MaxLabel()
	case "linear", "flat", "binary", "binomial":
		var tr *core.Tree
		switch op {
		case "linear":
			tr = baseline.LinearTree(m, m.P)
		case "flat":
			tr = baseline.FlatTree(m, m.P)
		case "binary":
			tr = baseline.BinaryTree(m, m.P)
		case "binomial":
			tr = baseline.BinomialTree(m, m.P)
		}
		c.S, err = baseline.Schedule(tr, 0)
		if err != nil {
			return nil, err
		}
		c.Bound = tb(m, m.P).MaxLabel()
		c.Baseline = true
	case "alltoall":
		c.S = alltoall.Schedule(m, k)
		c.Bound = alltoall.LowerBound(m, k)
	case "personalized":
		c.S = alltoall.Personalized(m)
		c.Bound = alltoall.LowerBound(m, 1)
	case "scatter":
		c.S = alltoall.Scatter(m)
		c.Bound = alltoall.ScatterLowerBound(m)
	case "gather":
		c.S = alltoall.Gather(m)
		c.Bound = alltoall.ScatterLowerBound(m)
	case "reduce":
		tr := tb(m, m.P)
		c.S = combine.ReduceScheduleWith(m, m.P, func(logp.Machine, int) *core.Tree { return tr })
		c.Bound = tr.MaxLabel()
	case "scan":
		tr := tb(m, m.P)
		c.S = combine.ScanScheduleWith(m, m.P, func(logp.Machine, int) *core.Tree { return tr })
		c.Bound = tr.MaxLabel() // one sweep is unavoidable
	case "kitem":
		_, c.S, err = kitem.OptimalGeneral(m.L, m.P, k)
		if err != nil {
			return nil, fmt.Errorf("%w (try the greedy scheduler in the library for this instance)", err)
		}
		c.Bound = logp.Time(kitem.BoundsFor(int(m.L), m.P, int64(k)).SingleSending)
	case "continuous":
		inst, err := ContinuousInstance(int(m.L), m.P-1)
		if err != nil {
			return nil, err
		}
		a, err := inst.Assign()
		if err != nil {
			return nil, err
		}
		c.S = a.KItemSchedule(k)
		c.Bound = logp.Time(inst.Delay() + k - 1)
	case "summation":
		if deadline <= 0 {
			return nil, errors.New("summation requires a deadline t > 0 (e.g. t=28 for Figure 6)")
		}
		var pl *summation.Plan
		pl, err = summation.BuildWith(m, deadline, tb)
		if err != nil {
			return nil, err
		}
		c.S = pl.Schedule()
		c.Bound = deadline
	default:
		return nil, fmt.Errorf("unknown op %q (want one of %v)", op, Ops)
	}
	return c, nil
}

// ContinuousInstance solves the continuous-broadcast instance behind
// Compile's continuous arm: latency l, p non-source processors. It is the
// general block-cyclic solve (per-item delay L + B(p)), except that at
// L = 2 with p = P(t), where Theorem 3.4 rules that delay out and the solve
// reports continuous.ErrNoSolution, it falls back to Theorem 3.5's pruned
// tree (delay t + 3).
func ContinuousInstance(l, p int) (*continuous.Instance, error) {
	inst, err := continuous.NewInstanceGeneral(l, p)
	if err != nil {
		return nil, err
	}
	err = inst.Solve(0)
	if l == 2 && errors.Is(err, continuous.ErrNoSolution) {
		seq := core.NewSeq(l)
		if t := seq.InvF(int64(p)); seq.F(t) == int64(p) {
			return continuous.SolveL2(t)
		}
	}
	if err != nil {
		return nil, err
	}
	return inst, nil
}

// OptimalBroadcastRef is the gap-attribution reference the broadcast
// baselines use: the causal breakdown of the *optimal* broadcast on the same
// machine, so -explain (and /v1/explain) attribute a baseline's gap against
// how the optimal tree spends its time. Returns nil if the optimal schedule
// cannot be built (it always can for a valid machine).
func OptimalBroadcastRef(m logp.Machine, tb core.TreeBuilder) *causal.Breakdown {
	opt, err := core.TreeSchedule(tb(m, m.P), 0, nil, 0)
	if err != nil {
		return nil
	}
	r := causal.Analyze(opt, core.Origins(0)).Achieved
	return &r
}

// ApplyBound attaches c's closed-form bound to rep the way cmd/logpsched
// -explain always has: the reference breakdown is the optimal broadcast's
// for baselines, and the achieved breakdown scaled to the bound otherwise.
// A Compiled with no known bound leaves rep untouched.
func ApplyBound(rep *causal.Report, c *Compiled, m logp.Machine, tb core.TreeBuilder) error {
	if c.Bound < 0 {
		return nil
	}
	ref := rep.Achieved.Scaled(c.Bound)
	if c.Baseline {
		if r := OptimalBroadcastRef(m, tb); r != nil {
			ref = *r
		}
	}
	return rep.SetBound(c.Bound, ref)
}
