// Package sched is the scheduling service behind cmd/logpservd: the
// operation compiler shared with cmd/logpsched, a canonical cache key over
// (op, constructor, P, L, o, g, k, t), a schedule cache (one lock, one LRU
// list, one byte budget) with singleflight request coalescing, and an
// instrumented HTTP/JSON API (/v1/schedule, /v1/batch, /v1/explain) with
// RED metrics, request-scoped tracing, structured logging, and live
// introspection endpoints (/healthz, /readyz, /debug/inflight,
// /debug/cache).
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
	"logpopt/internal/logtime"
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

// baselines builds the tree of each broadcast baseline op.
var baselines = map[string]func(logp.Machine, int) *core.Tree{
	"linear":   baseline.LinearTree,
	"flat":     baseline.FlatTree,
	"binary":   baseline.BinaryTree,
	"binomial": baseline.BinomialTree,
}

// BaselineOp reports whether op is one of the broadcast baselines, whose
// bound is the optimal tree's B(P) rather than a closed form of their own
// (Compiled.Baseline).
func BaselineOp(op string) bool {
	_, ok := baselines[op]
	return ok
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
// the optimal broadcast tree for the ops that need one (the broadcast
// baselines need only its height, B(P), and take it from logtime.B). The
// arms mirror the paper's sections exactly — this is cmd/logpsched's former
// switch, factored out so the service computes the identical artifact.
func Compile(m logp.Machine, op string, k int, deadline logp.Time, tb core.TreeBuilder) (*Compiled, error) {
	if KOp(op) && k < 1 {
		return nil, fmt.Errorf("op %s: k must be at least 1, got %d", op, k)
	}
	if tree, ok := baselines[op]; ok {
		s, err := baseline.Schedule(tree(m, m.P), 0)
		if err != nil {
			return nil, err
		}
		// B(P) is the optimal tree's height under every builder, so the
		// bound needs no tree.
		return &Compiled{S: s, Bound: logtime.B(m, m.P), Baseline: true}, nil
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
		c.S = combine.ReduceScheduleWith(tr)
		c.Bound = tr.MaxLabel()
	case "scan":
		tr := tb(m, m.P)
		c.S = combine.ScanScheduleWith(tr)
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

// Stream returns op's schedule on m as an event sequence when that schedule
// is a fixed expansion of a logtime tree's edges — broadcast, reduce and
// scan on m's optimal tree, and the binomial baseline, which is the
// broadcast of the stretched machine baseline.BinomialMachine(m) — together
// with its bound B(P) (the optimal tree's height on m, as Compile reports).
// The sequence walks the counting tables (logtime.Seq) and encodes, under
// m's header, to exactly the bytes of Compile's schedule, without building
// the tree or the events. ok is false for every other op, which only
// Compile answers.
func Stream(m logp.Machine, op string) (seq schedule.Seq, bound logp.Time, ok bool) {
	walk, c := m, logtime.Broadcast
	switch op {
	case "broadcast":
	case "binomial":
		walk = baseline.BinomialMachine(m)
	case "reduce":
		c = logtime.Reduce
	case "scan":
		c = logtime.Scan
	default:
		return nil, 0, false
	}
	return logtime.Seq(walk, c), logtime.B(m, m.P), true
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
// how the optimal tree spends its time.
func OptimalBroadcastRef(m logp.Machine) causal.Breakdown {
	return causal.Analyze(logtime.BroadcastSchedule(m, 0), core.Origins(0)).Achieved
}

// ApplyBound attaches c's closed-form bound to rep the way cmd/logpsched
// -explain always has: the reference breakdown is the optimal broadcast's
// for baselines, and the achieved breakdown scaled to the bound otherwise.
// A Compiled with no known bound leaves rep untouched.
func ApplyBound(rep *causal.Report, c *Compiled, m logp.Machine) error {
	if c.Bound < 0 {
		return nil
	}
	ref := rep.Achieved.Scaled(c.Bound)
	if c.Baseline {
		ref = OptimalBroadcastRef(m)
	}
	return rep.SetBound(c.Bound, ref)
}
