package conform

import (
	"fmt"
	"time"

	"logpopt/internal/logp"
	"logpopt/internal/obs"
	"logpopt/internal/par"
	"logpopt/internal/runtime"
	"logpopt/internal/schedule"
	"logpopt/internal/sim"
)

// Harness metrics: how many cases ran, how many diverged, and how long each
// backend takes to replay one (the histogram exposes which implementation
// dominates a slow conformance sweep).
var (
	mCases          = obs.Default.Counter("conform.cases")
	mDivergences    = obs.Default.Counter("conform.divergences")
	mAnalyses       = obs.Default.Counter("conform.analyses")       // critical-path analyses made by Check
	mIndexes        = obs.Default.Counter("conform.indexes")        // trace indexes built, one per distinct trace of a Check
	mAvailabilities = obs.Default.Counter("conform.availabilities") // availability tables built, one per distinct trace of a Check
	mTraceCompares  = obs.Default.Counter("conform.trace_compares") // backend traces checked against another: engine runs against the reference, and trace diffs that walk two traces
)

// Checker replays cases on all five backends and diffs the results. One
// Checker is cheap to keep around: its simulator engine and its runtime are
// recycled across cases. A Checker serves one Check at a time.
type Checker struct {
	simStrict *SimBackend
	simBuf    *SimBackend
	rtStrict  *RuntimeBackend
	rtBuf     *RuntimeBackend
	validator ValidatorBackend
	replayUS  map[string]*obs.Histogram // per-backend replay wall time (µs)
}

func NewChecker() *Checker {
	// The strict and buffered backends of each engine run one after the
	// other, so they share one recycled engine: a Checker holds one
	// simulator's and one runtime's worth of slabs, not two of each.
	eng := new(sim.Engine)
	rt, rp := new(runtime.Runtime), new(runtime.Replayer)
	ck := &Checker{
		simStrict: &SimBackend{Mode: sim.Strict, eng: eng},
		simBuf:    &SimBackend{Mode: sim.Buffered, eng: eng},
		rtStrict:  &RuntimeBackend{Mode: runtime.Strict, rt: rt, replayer: rp},
		rtBuf:     &RuntimeBackend{Mode: runtime.Buffered, rt: rt, replayer: rp},
	}
	ck.replayUS = make(map[string]*obs.Histogram)
	for _, name := range []string{
		ck.simStrict.Name(), ck.simBuf.Name(),
		ck.rtStrict.Name(), ck.rtBuf.Name(), ck.validator.Name(),
	} {
		ck.replayUS[name] = obs.Default.Histogram("conform.replay.us." + name)
	}
	return ck
}

// SetTracer attaches one shared flight recorder to every executing backend,
// each on its own process track (pid 1-4) so a whole conformance run lands
// in a single Perfetto-loadable file. Pass nil to detach.
func (ck *Checker) SetTracer(tr *obs.Tracer) {
	ck.simStrict.Tracer, ck.simStrict.TracePID = tr, 1
	ck.simBuf.Tracer, ck.simBuf.TracePID = tr, 2
	ck.rtStrict.Tracer, ck.rtStrict.TracePID = tr, 3
	ck.rtBuf.Tracer, ck.rtBuf.TracePID = tr, 4
	if tr != nil {
		tr.NameProcess(1, "sim-strict")
		tr.NameProcess(2, "sim-buffered")
		tr.NameProcess(3, "runtime-strict")
		tr.NameProcess(4, "runtime-buffered")
	}
}

// replay runs one backend on the Check's traces and records its wall time
// in the per-backend histogram.
func (ck *Checker) replay(b backend, c Case, t *traces) Result {
	start := time.Now()
	r := b.replayIn(c, t)
	ck.replayUS[r.Backend].Observe(time.Since(start).Microseconds())
	return r
}

// Check replays the case on every backend and returns a description of each
// divergence from the backend-equivalence contract (empty means conformant):
//
//   - Clean flag: within the strict group (sim-strict, runtime-strict,
//     validator) and within the buffered group (sim-buffered,
//     runtime-buffered), the backends must agree on whether the case is
//     violation-free. Violation *kinds and counts* may differ — the
//     implementations discover problems in different orders — but "clean"
//     is a statement about the machine model and must be unanimous.
//   - Clean strict case: all three strict backends produce the identical
//     trace and finish time.
//   - Clean buffered case: both buffered backends produce the identical
//     trace, finish time, and buffer high-water mark, and the executed
//     trace passes ValidateDeferred + CheckAvailability.
//   - Clean in both modes: the buffered trace equals the strict trace (an
//     uncontended schedule must not behave differently under queueing).
//   - Clean cases: within each executing pair (sim vs runtime, per mode) the
//     per-processor Stats breakdown — sends, receives, busy and idle cycles,
//     and (buffered only) queue high-water marks — must agree field for
//     field.
//   - Always: the simulator's reported Finish must equal the finish time
//     recomputed independently from its own trace.
//
// The replays and the expensive checks run as a par.Graph on up to
// par.Limit() workers. The first builds the case's reference, the
// validator's derived trace, from the case's sends sorted once (see
// traces.reference). Then come the simulator chain (strict, then buffered,
// on the shared engine, both reading the sorted sends), the runtime chain
// likewise, the validator, the deferred validation of the buffered trace
// (after the validator), the finish recomputation, and the critical-path
// analyses. Each engine runs against the reference and stores no event while
// it matches, so on a clean case all five results hold the reference itself.
// Every backend returns its trace in the event order, and what the checks
// derive from a trace — its availability table, its validations and its
// critical path — depends only on the machine and the events, so Check
// derives each part once per distinct trace (see traces): a case clean in
// both modes, whose five traces agree, builds one index and one
// availability table, validates once for both disciplines and runs one
// analysis, all reading that index. The analyses form one chain, so at most one is in flight (each
// holds a DAG of the case's size), and a mode's pair starts once both of
// its traces are clean. The diffs are then assembled on the caller's
// goroutine in a fixed order, so they are the same at every width. A
// panicking stage re-panics here as a *par.StagePanic once every other
// stage has finished.
func (ck *Checker) Check(c Case) (diffs []string) {
	mCases.Inc()
	defer func() {
		if len(diffs) > 0 {
			mDivergences.Inc()
		}
	}()
	var (
		simS, rtS, val, simB, rtB Result
		deferred                  []schedule.Violation
		fin                       [2]logp.Time // finishes of simS's and simB's traces
		sigS, sigB                [2]string    // critical paths: sim, runtime
	)
	t := newTraces(c.Origins)
	var g par.Graph
	// The reference comes first: the engines run against it, and it is the
	// validator's trace.
	ref := g.Add("reference", func() { t.reference(c.S) })
	sS := g.Add("sim-strict", func() { simS = ck.replay(ck.simStrict, c, t) }, ref)
	rS := g.Add("runtime-strict", func() { rtS = ck.replay(ck.rtStrict, c, t) }, ref)
	v := g.Add("validator", func() { val = ck.replay(ck.validator, c, t) }, ref)
	sB := g.Add("sim-buffered", func() { simB = ck.replay(ck.simBuf, c, t) }, sS)
	rB := g.Add("runtime-buffered", func() { rtB = ck.replay(ck.rtBuf, c, t) }, rS)
	// On a clean case the validator's derived trace is the buffered
	// simulator trace, and the validator has already validated it under
	// both disciplines: run after it, so that the lookup never holds a
	// worker waiting for that pass.
	g.Add("deferred-validation", func() {
		if simB.Clean() {
			_, ds, unavail := t.checks(simB.Trace)
			deferred = append(ds, unavail...)
		}
	}, sB, v)
	// A mode's critical paths are compared only when both of its traces
	// are clean, so only then are they computed.
	analyze := func(sig *string, r, sim, rt *Result) func() {
		return func() {
			if sim.Clean() && rt.Clean() {
				*sig = t.signature(r.Trace)
			}
		}
	}
	a := g.Add("critical-path/sim-strict", analyze(&sigS[0], &simS, &simS, &rtS), sS, rS)
	a = g.Add("critical-path/runtime-strict", analyze(&sigS[1], &rtS, &simS, &rtS), a)
	a = g.Add("critical-path/sim-buffered", analyze(&sigB[0], &simB, &simB, &rtB), a, sB, rB)
	g.Add("critical-path/runtime-buffered", analyze(&sigB[1], &rtB, &simB, &rtB), a)
	g.Add("finish", func() {
		fin[0], fin[1] = t.finish(simS.Trace), t.finish(simB.Trace)
	}, sS, sB)
	g.Run()

	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}

	for _, grp := range [][]Result{{simS, rtS, val}, {simB, rtB}} {
		ref := grp[0]
		for _, r := range grp[1:] {
			if ref.Clean() != r.Clean() {
				add("%s clean=%v but %s clean=%v (kinds %v vs %v)",
					ref.Backend, ref.Clean(), r.Backend, r.Clean(),
					schedule.Kinds(ref.Violations), schedule.Kinds(r.Violations))
			}
		}
	}
	if len(diffs) > 0 {
		// Trace and finish comparisons are only meaningful once the backends
		// agree on legality.
		return diffs
	}

	// The simulator and the runtime implement the same record-and-continue
	// execution — a busy port still receives, an illegal send is dropped —
	// so their executed traces must match even on dirty cases. (The
	// validator is excluded here: it drops nothing, so its derived trace
	// only matches on clean cases.)
	if msg := t.diff(simS.Trace, rtS.Trace); msg != "" {
		add("strict execution trace: sim vs runtime: %s", msg)
	}
	if msg := t.diff(simB.Trace, rtB.Trace); msg != "" {
		add("buffered execution trace: sim vs runtime: %s", msg)
	}

	if simS.Clean() {
		for _, r := range []Result{rtS, val} {
			if msg := t.diff(simS.Trace, r.Trace); msg != "" {
				add("strict trace: %s vs %s: %s", simS.Backend, r.Backend, msg)
			}
			if simS.Finish != r.Finish {
				add("strict finish: %s=%d, %s=%d", simS.Backend, simS.Finish, r.Backend, r.Finish)
			}
		}
		// Queue marks are excluded in strict mode: the runtime routes
		// simultaneous arrivals through its queue within a step (so its
		// high-water counts coincident messages) while the simulator never
		// buffers in strict mode.
		if msg := statsDiff(simS.Stats(), rtS.Stats(), false); msg != "" {
			add("strict stats: sim vs runtime: %s", msg)
		}
	}
	if simB.Clean() {
		if msg := t.diff(simB.Trace, rtB.Trace); msg != "" {
			add("buffered trace: %s vs %s: %s", simB.Backend, rtB.Backend, msg)
		}
		if simB.Finish != rtB.Finish {
			add("buffered finish: sim=%d, runtime=%d", simB.Finish, rtB.Finish)
		}
		if simB.MaxBuffer != rtB.MaxBuffer {
			add("buffer high-water: sim MaxBuffer=%d, runtime MaxQueue=%d", simB.MaxBuffer, rtB.MaxBuffer)
		}
		if msg := statsDiff(simB.Stats(), rtB.Stats(), true); msg != "" {
			add("buffered stats: sim vs runtime: %s", msg)
		}
		if len(deferred) != 0 {
			add("clean buffered trace fails deferred validation: %v", deferred[0])
		}
	}

	// Causal-analysis equivalence: on clean cases the critical path — the
	// chain of constraints that explains the finish time — must be identical
	// between the simulator's and the runtime's executed traces. The analysis
	// is deterministic in the event multiset, so a signature mismatch means
	// the backends genuinely executed different causal structures (a subtler
	// divergence than a trace diff, which would already have fired above).
	if simS.Clean() && sigS[0] != sigS[1] {
		add("strict critical path: sim vs runtime: %q vs %q", sigS[0], sigS[1])
	}
	if simB.Clean() && sigB[0] != sigB[1] {
		add("buffered critical path: sim vs runtime: %q vs %q", sigB[0], sigB[1])
	}
	if simS.Clean() && simB.Clean() {
		if msg := t.diff(simS.Trace, simB.Trace); msg != "" {
			add("strict vs buffered trace on a clean schedule: %s", msg)
		}
	}
	for i, r := range []Result{simS, simB} {
		if fin[i] != r.Finish {
			add("%s reports Finish=%d but its trace implies %d", r.Backend, r.Finish, fin[i])
		}
	}
	return diffs
}

// Diverges reports whether the case violates the contract. It is the
// predicate the shrinker minimizes against.
func (ck *Checker) Diverges(c Case) bool { return len(ck.Check(c)) > 0 }

// statsDiff compares two Stats breakdowns and describes the first
// disagreement ("" when equal). queues controls whether the per-processor
// and aggregate queue high-water marks participate: they are comparable only
// between the buffered backends (see Check).
func statsDiff(a, b schedule.Stats, queues bool) string {
	if a.Sends != b.Sends || a.Recvs != b.Recvs {
		return fmt.Sprintf("sends/recvs (%d,%d) vs (%d,%d)", a.Sends, a.Recvs, b.Sends, b.Recvs)
	}
	if a.BusyCycles != b.BusyCycles {
		return fmt.Sprintf("busy cycles %d vs %d", a.BusyCycles, b.BusyCycles)
	}
	if a.Span != b.Span || a.PortUtilFinish != b.PortUtilFinish {
		return fmt.Sprintf("span/util (%d,%v) vs (%d,%v)", a.Span, a.PortUtilFinish, b.Span, b.PortUtilFinish)
	}
	if queues && a.MaxQueue != b.MaxQueue {
		return fmt.Sprintf("queue high-water %d vs %d", a.MaxQueue, b.MaxQueue)
	}
	if len(a.PerProc) != len(b.PerProc) {
		return fmt.Sprintf("per-proc lengths %d vs %d", len(a.PerProc), len(b.PerProc))
	}
	for p := range a.PerProc {
		ap, bp := a.PerProc[p], b.PerProc[p]
		if ap.Sends != bp.Sends || ap.Recvs != bp.Recvs ||
			ap.BusyCycles != bp.BusyCycles || ap.IdleCycles != bp.IdleCycles {
			return fmt.Sprintf("P%d: %+v vs %+v", p, ap, bp)
		}
		if queues && ap.MaxQueue != bp.MaxQueue {
			return fmt.Sprintf("P%d queue high-water %d vs %d", p, ap.MaxQueue, bp.MaxQueue)
		}
	}
	return ""
}

// traceDiff compares two traces, both in the event order,
// event by event and describes the first difference ("" when equal).
func traceDiff(a, b *schedule.Schedule) string {
	mTraceCompares.Inc()
	ae, be := a.Events, b.Events
	n := min(len(ae), len(be))
	for i := 0; i < n; i++ {
		if ae[i] != be[i] {
			return fmt.Sprintf("event %d: %+v vs %+v", i, ae[i], be[i])
		}
	}
	if len(ae) != len(be) {
		return fmt.Sprintf("%d events vs %d", len(ae), len(be))
	}
	return ""
}
