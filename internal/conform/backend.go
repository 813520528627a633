// Package conform is a differential conformance harness for the three
// independent implementations of the LogP machine in this repository: the
// discrete-event simulator (internal/sim, Strict and Buffered), the
// event-driven runtime (internal/runtime), and the schedule validator
// (internal/schedule, as an analytic backend). Each is wrapped as a Backend
// that replays a schedule from item origins and reports the executed events,
// the finish time, the recorded violations, and the buffer high-water mark;
// the Checker replays every case on all backends and diffs the results under
// the backend-equivalence contract (see Check).
package conform

import (
	"fmt"

	"logpopt/internal/logp"
	"logpopt/internal/obs"
	"logpopt/internal/runtime"
	"logpopt/internal/schedule"
	"logpopt/internal/sim"
)

// Case is one conformance input: a schedule plus the origin map saying where
// each item starts.
type Case struct {
	Name    string
	S       *schedule.Schedule
	Origins map[int]schedule.Origin
}

// Result is what one backend reports for one case.
type Result struct {
	Backend    string
	Violations []schedule.Violation
	Trace      *schedule.Schedule // executed (or derived) sends and recvs
	Finish     logp.Time          // time the last availability lands
	MaxBuffer  int                // buffer/queue high-water mark (buffered backends)
	Stats      schedule.Stats     // per-processor breakdown (executing backends only)
}

// Clean reports whether the backend saw no violations.
func (r Result) Clean() bool { return len(r.Violations) == 0 }

// Backend replays conformance cases on one machine implementation.
// Backends return traces their caller owns, in the event order
// (schedule.CompareEvents).
type Backend interface {
	Name() string
	Replay(c Case) Result
}

// backend is a Backend that can take what it derives from its trace from
// the traces of the Check it runs in (nil: derive afresh).
type backend interface {
	Backend
	replayIn(c Case, t *traces) Result
}

// SimBackend replays cases on the discrete-event simulator, recycling one
// engine across cases (Reset + Replay reuses every internal allocation);
// a Checker's strict and buffered backends share theirs. When Tracer is
// set, every replay appends its flight recording to it; TracePID picks the
// process track (0 means the simulator's default).
type SimBackend struct {
	Mode     sim.Mode
	Tracer   *obs.Tracer
	TracePID int
	eng      *sim.Engine
}

func (b *SimBackend) Name() string {
	if b.Mode == sim.Buffered {
		return "sim-buffered"
	}
	return "sim-strict"
}

// replayIn is Replay on the case's sends in the event order, which t sorts
// once for both of a Check's simulator replays.
func (b *SimBackend) replayIn(c Case, t *traces) Result {
	if t != nil {
		c.S = t.sends(c.S)
	}
	return b.Replay(c)
}

func (b *SimBackend) Replay(c Case) Result {
	if b.eng == nil {
		b.eng = new(sim.Engine)
	}
	b.eng.Reset(c.S.M, b.Mode)
	b.eng.Tracer = b.Tracer
	b.eng.TracePID = b.TracePID
	rep := b.eng.Replay(c.S, c.Origins)
	return Result{
		Backend:    b.Name(),
		Violations: rep.Violations,
		Trace:      b.eng.Executed(),
		Finish:     rep.Finish,
		MaxBuffer:  rep.MaxBuffer,
		Stats:      b.eng.Stats(),
	}
}

// RuntimeBackend replays cases on the event-driven runtime through a
// runtime.Replayer, recycling one runtime and one Replayer across cases
// (Reset reuses their slabs, as SimBackend's engine does); a Checker's
// strict and buffered backends share them. When Tracer is set, every replay
// appends its flight recording to it; TracePID picks the process track (0
// means the runtime's default).
type RuntimeBackend struct {
	Mode     runtime.Mode
	Tracer   *obs.Tracer
	TracePID int
	rt       *runtime.Runtime
	replayer *runtime.Replayer
}

func (b *RuntimeBackend) Name() string {
	if b.Mode == runtime.Buffered {
		return "runtime-buffered"
	}
	return "runtime-strict"
}

func (b *RuntimeBackend) Replay(c Case) Result { return b.replayIn(c, nil) }

func (b *RuntimeBackend) replayIn(c Case, t *traces) Result {
	res := Result{Backend: b.Name()}
	// The handler table is indexed by sender, so sends from an out-of-range
	// processor cannot be replayed at all; record them up front the way the
	// other backends do.
	for _, ev := range c.S.Events {
		if ev.Op == schedule.OpSend && (ev.Proc < 0 || ev.Proc >= c.S.M.P) {
			res.Violations = append(res.Violations, schedule.Violation{
				Kind: schedule.VBadProc,
				Msg:  fmt.Sprintf("runtime: send from out-of-range proc %d", ev.Proc),
			})
		}
	}
	if b.rt == nil {
		b.rt, b.replayer = new(runtime.Runtime), new(runtime.Replayer)
	}
	err := c.S.M.Validate()
	if err == nil {
		err = b.rt.Reset(c.S.M, b.Mode, b.replayer.Handlers(c.S, c.Origins))
	}
	if err != nil {
		res.Violations = append(res.Violations, schedule.Violation{
			Kind: "setup", Msg: err.Error(),
		})
		res.Trace = &schedule.Schedule{M: c.S.M}
		return res
	}
	rt := b.rt
	rt.Tracer = b.Tracer
	rt.TracePID = b.TracePID
	rt.Run(runtime.Horizon(c.S))
	limit := runtime.DrainHorizon(c.S)
	for rt.Pending() && rt.Now() < limit {
		rt.Step()
	}
	res.Violations = append(res.Violations, rt.Violations()...)
	res.Trace = rt.Trace()
	res.Finish = t.orNew(c).finish(res.Trace)
	res.MaxBuffer = rt.MaxQueue()
	res.Stats = rt.Stats(res.Finish)
	return res
}

// ValidatorBackend checks cases analytically with the schedule validator: it
// derives the strict-mode receptions (send time + o + L for every send with
// a reachable destination) and runs Validate plus CheckAvailability over the
// result. It executes nothing, so it belongs to the strict group only.
type ValidatorBackend struct{}

func (ValidatorBackend) Name() string { return "validator" }

func (v ValidatorBackend) Replay(c Case) Result { return v.replayIn(c, nil) }

func (ValidatorBackend) replayIn(c Case, t *traces) Result {
	m := c.S.M
	sends := 0
	for _, ev := range c.S.Events {
		if ev.Op == schedule.OpSend {
			sends++
		}
	}
	// Each send derives at most one reception.
	d := &schedule.Schedule{M: m, Events: make([]schedule.Event, 0, 2*sends)}
	for _, ev := range c.S.Events {
		if ev.Op != schedule.OpSend {
			continue
		}
		d.Send(ev.Proc, ev.Time, ev.Item, ev.Peer)
		if ev.Peer >= 0 && ev.Peer < m.P && ev.Peer != ev.Proc {
			d.Recv(ev.Peer, ev.Time+m.O+m.L, ev.Item, ev.Proc)
		}
	}
	d.Sort()
	res := Result{Backend: "validator", Trace: d}
	if t == nil {
		// On its own the validator needs only the strict discipline.
		x := schedule.NewIndex(d)
		av := x.Availability(c.Origins)
		res.Violations = append(x.Validate(), av.Check(x)...)
		res.Finish = av.Latest()
		return res
	}
	vs, _, unavail := t.checks(d)
	res.Violations, res.Finish = append(vs, unavail...), t.finish(d)
	return res
}
