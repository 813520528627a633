// Package sim provides a deterministic discrete-event simulator of a LogP
// machine. It executes communication schedules (or is driven step-by-step by
// an online scheduler), routing every message with latency L, charging the
// overhead o at both ports, enforcing the gap g between consecutive port
// operations, and enforcing the network capacity bound.
//
// The simulator supports two reception disciplines:
//
//   - Strict: a message must be received the instant it arrives; an arrival
//     at a busy port is a violation. This is the plain LogP/postal model in
//     which the paper's optimal schedules are stated.
//   - Buffered: arrivals enter a bounded input buffer and the processor
//     receives at most one buffered item per free receive slot. This is the
//     modified model of Section 3.5 (Theorem 3.8), under which the
//     single-sending lower bound for k-item broadcast becomes achievable.
//     The paper notes a buffer of size 2 suffices; the simulator reports the
//     high-water mark so that claim can be checked.
package sim

import (
	"fmt"
	"slices"

	"logpopt/internal/logp"
	"logpopt/internal/obs"
	"logpopt/internal/obs/timeseries"
	"logpopt/internal/schedule"
	"logpopt/internal/slab"
)

// Package-level metric handles (looked up once; see the obs overhead
// discipline). Hot paths accumulate into plain Engine fields and Replay
// flushes one atomic add per counter per run.
var (
	mReplays    = obs.Default.Counter("sim.replays")
	mEvents     = obs.Default.Counter("sim.events.processed")
	mSends      = obs.Default.Counter("sim.sends")
	mRecvs      = obs.Default.Counter("sim.recvs")
	mCapChecks  = obs.Default.Counter("sim.capacity.checks")
	mViolations = obs.Default.Counter("sim.violations")
	mSendSorts  = obs.Default.Counter("sim.send_sorts") // replays whose sends were out of the event order
	// Port-wait distribution: cycles a message sat in a Buffered-mode input
	// buffer between arrival and reception. Observed only for positive waits
	// — strict-mode receptions and immediate drains stay off the histogram's
	// mutex, keeping the hot path to plain counter tallies.
	mRecvWait = obs.Default.Histogram("sim.recv.wait.cycles")
	// Live in-flight message count, refreshed on the amortized event flush so a
	// scraper polling /metrics mid-replay sees the drain progressing.
	gInflight = obs.Default.Gauge("sim.inflight")
)

// liveFlushEvery is the amortized flush threshold: every this many drained
// events, the run-local tallies are pushed into the process-wide counters so
// live observers (the /metrics and /timeseries endpoints) see a long replay
// progress instead of one end-of-run step. Power of two; the hot path pays
// one compare per event.
const liveFlushEvery = 8192

// Mode selects the reception discipline.
type Mode int

// Reception disciplines.
const (
	Strict Mode = iota
	Buffered
)

// Msg is a message in flight or in a buffer.
type Msg struct {
	From, To, Item int
	SendAt         logp.Time // time the send began
	Arrive         logp.Time // SendAt + o + L
}

// procState tracks one processor's ports and holdings. Item availability
// lives outside the struct, in the engine's slab-backed availStore, so a
// million-processor engine allocates no per-processor maps.
type procState struct {
	lastSendStart logp.Time // start of most recent send; -inf if none
	lastRecvStart logp.Time
	busyUntil     logp.Time // end of current overhead/compute interval
	// Arrived, not yet received (Buffered mode), queued in the engine's
	// message slab. It is filled only from the in-flight queue's pops, so
	// it is in compareFlight order: FIFO is the drain order.
	buffer    slab.List
	maxBuffer int
	// In-network interval end times (sendAt+o+L) of messages currently in
	// transit from / to this processor, for the capacity bound ceil(L/g),
	// queued in the engine's ends slab. Sends happen in nondecreasing time
	// order, so both are sorted queues.
	outEnds, inEnds slab.List
}

// Engine is a running LogP machine. Create one with New, inject origin items,
// then either replay a schedule with Run or drive it interactively:
// repeatedly TickTo / Send. A finished engine can be recycled for another
// run with Reset, which reuses every internal allocation (the in-flight
// queue, the availability slab, the buffered-message slab, and
// executed-event storage), bounded by decayed retain watermarks so a
// one-off huge case does not pin memory for the rest of a sweep.
type Engine struct {
	M         logp.Machine
	Mode      Mode
	BufferCap int // max buffered arrivals per proc in Buffered mode; 0 = unlimited

	// Tracer, when non-nil, receives a flight recorder of the run: one span
	// per port overhead (per-processor busy tracks), instants for
	// violations, and counters for the in-flight count and total buffered
	// queue depth. Timestamps are LogP cycles. TracePID selects the trace
	// process id (defaults to 1); set distinct pids to overlay several
	// engines in one trace. Both survive Reset, like BufferCap.
	Tracer   *obs.Tracer
	TracePID int

	// TS, when non-nil, receives a simulated-time series of the run: the
	// engine registers probes for its clock, in-flight count, drained
	// events, buffered depth, and violation count, and samples them once per
	// configured window of virtual cycles (Collector.SetWindow; every cycle
	// when unset). Probes read engine state without synchronization, which is
	// safe because the engine itself drives the sampling from its tick loop.
	// Like Tracer, TS survives Reset.
	TS *timeseries.Collector

	now        logp.Time
	procs      []procState
	inflight   flightQueue
	avail      availStore
	executed   schedule.Schedule
	violations []schedule.Violation
	sendBuf    []schedule.Event // Replay scratch, reused across runs
	sorter     schedule.EventSorter
	ends       slab.Lists[logp.Time]
	msgs       slab.Lists[Msg] // the Buffered-mode buffers' messages
	// buffered lists the processors with non-empty buffers (Buffered mode),
	// so a drain visits them instead of all P.
	buffered []int32

	// Decayed high-water marks feeding the Reset shrink policy (see Reset).
	hwProcs, hwInflight, hwAvail, hwExecuted, hwSendBuf, hwViol, hwEnds, hwMsgs slab.Watermark

	// Run-local metric tallies, flushed to obs.Default by Replay (with an
	// amortized live flush every liveFlushEvery drained events; flushedEvents
	// tracks how much of nEvents has already been pushed).
	nEvents, nCapChecks int64
	flushedEvents       int64
	bufferedNow         int // total buffered messages across procs (Buffered)
}

const minusInf = logp.Time(-1) << 40

// New returns an engine at time 0 with no items anywhere.
func New(m logp.Machine, mode Mode) *Engine {
	e := &Engine{}
	e.Reset(m, mode)
	return e
}

// Reset reinitializes the engine for machine m in the given mode, reusing
// the allocations of any previous run: the per-processor states, the
// in-flight queue, the capacity-end and buffered-message slabs, the
// availability slab, and the executed-event slice all keep their capacity. BufferCap is preserved.
//
// Reuse is bounded by decayed retain watermarks: each Reset folds the
// finished run's usage into a per-resource high-water mark, decays it, and
// frees any allocation that has grown to more than 4x the retained need —
// so a single P=10^6 case in the middle of a small-P sweep does not pin
// hundreds of megabytes for the rest of the process.
func (e *Engine) Reset(m logp.Machine, mode Mode) {
	hwExec := e.hwExecuted.Update(len(e.executed.Events))
	hwSend := e.hwSendBuf.Update(len(e.sendBuf))
	hwViol := e.hwViol.Update(len(e.violations))
	hwFlight := e.hwInflight.Update(e.inflight.peak)
	hwAvail := e.hwAvail.Update(len(e.avail.entries))
	hwProcs := e.hwProcs.Update(m.P)
	hwEnds := e.hwEnds.Update(e.ends.Peak())
	hwMsgs := e.hwMsgs.Update(e.msgs.Peak())

	e.M, e.Mode = m, mode
	e.now = 0
	e.executed.M = m
	e.executed.Events = slab.Reuse(e.executed.Events, hwExec, 1024)
	e.sendBuf = slab.Reuse(e.sendBuf, hwSend, 1024)
	e.violations = slab.Reuse(e.violations, hwViol, 64)
	e.buffered = slab.Reuse(e.buffered, hwProcs, 1024)
	e.ends.Reset(hwEnds)
	e.msgs.Reset(hwMsgs)
	e.inflight.reset(hwFlight)
	if slab.Oversized(cap(e.avail.entries), hwAvail, 1024) {
		e.avail.entries = nil
	}
	e.avail.reset(m.P)
	e.nEvents, e.nCapChecks, e.bufferedNow = 0, 0, 0
	e.flushedEvents = 0
	if cap(e.procs) < m.P || slab.Oversized(cap(e.procs), max(m.P, hwProcs), 1024) {
		e.procs = make([]procState, m.P)
	} else {
		e.procs = e.procs[:m.P]
	}
	for i := range e.procs {
		ps := &e.procs[i]
		ps.lastSendStart = minusInf
		ps.lastRecvStart = minusInf
		ps.busyUntil = minusInf
		ps.maxBuffer = 0
		ps.buffer, ps.outEnds, ps.inEnds = slab.List{}, slab.List{}, slab.List{}
	}
}

// Now returns the current simulation time.
func (e *Engine) Now() logp.Time { return e.now }

// DefaultTracePID is the trace process id an engine uses when TracePID is
// unset. Exported so callers can address the engine's tracks — e.g. to
// attach an obs.Sampler — without setting an explicit pid first.
const DefaultTracePID = 1

// tracePID returns the pid used for this engine's trace tracks.
func (e *Engine) tracePID() int {
	if e.TracePID != 0 {
		return e.TracePID
	}
	return DefaultTracePID
}

// violate records a violation and, when tracing, marks it as an instant on
// the offending processor's track (or the engine track P when proc < 0).
func (e *Engine) violate(proc int, v schedule.Violation) {
	e.violations = append(e.violations, v)
	if e.Tracer != nil {
		tid := proc
		if tid < 0 || tid >= e.M.P {
			tid = e.M.P
		}
		e.Tracer.Instant(e.tracePID(), tid, "violation", int64(e.now),
			obs.A("kind", string(v.Kind)), obs.A("msg", v.Msg))
	}
}

// Inject makes item available at processor p at time at (an origin, e.g. the
// broadcast source's datum, or a continuously generated stream item).
func (e *Engine) Inject(p, item int, at logp.Time) {
	e.avail.setMin(p, item, at)
}

// Has reports whether item is available at p at the current time.
func (e *Engine) Has(p, item int) bool {
	t, ok := e.avail.get(p, item)
	return ok && t <= e.now
}

// AvailableAt returns the time item became (or becomes) available at p, and
// whether it is known at all.
func (e *Engine) AvailableAt(p, item int) (logp.Time, bool) {
	return e.avail.get(p, item)
}

// CanSend reports whether p's send port is free at the current time: the gap
// since the previous send has elapsed and the processor is not inside an
// overhead interval.
func (e *Engine) CanSend(p int) bool {
	ps := &e.procs[p]
	return e.now >= ps.lastSendStart+e.M.G && e.now >= ps.busyUntil
}

// canRecvAt reports whether p can begin a reception at time t.
func (e *Engine) canRecvAt(p int, t logp.Time) bool {
	ps := &e.procs[p]
	return t >= ps.lastRecvStart+e.M.G && t >= ps.busyUntil
}

// Send transmits item from -> to starting at the current time. It returns an
// error (and does nothing) if the sender does not hold the item, the port is
// not free, or the destination is out of range.
func (e *Engine) Send(from, item, to int) error {
	if to < 0 || to >= e.M.P || from < 0 || from >= e.M.P {
		return fmt.Errorf("sim: send %d->%d out of range (P=%d)", from, to, e.M.P)
	}
	if from == to {
		return fmt.Errorf("sim: proc %d sending item %d to itself", from, item)
	}
	if !e.Has(from, item) {
		return fmt.Errorf("sim: proc %d does not hold item %d at time %d", from, item, e.now)
	}
	if !e.CanSend(from) {
		return fmt.Errorf("sim: proc %d send port busy at time %d", from, e.now)
	}
	ps := &e.procs[from]
	ps.lastSendStart = e.now
	if end := e.now + e.M.O; end > ps.busyUntil {
		ps.busyUntil = end
	}
	e.checkCapacity(from, to)
	msg := Msg{From: from, To: to, Item: item, SendAt: e.now, Arrive: e.now + e.M.O + e.M.L}
	e.inflight.push(msg)
	e.executed.Send(from, e.now, item, to)
	if e.Tracer != nil {
		pid := e.tracePID()
		e.Tracer.Span(pid, from, "send", int64(e.now), int64(e.M.O),
			obs.A("item", item), obs.A("to", to))
		e.Tracer.Counter(pid, "inflight", int64(e.now), int64(e.inflight.len()))
	}
	return nil
}

// checkCapacity enforces the network capacity bound ceil(L/g): a message sent
// now occupies the network during (now+o, now+o+L]; no more than Capacity()
// messages may be in transit from one processor, or to one processor, at any
// instant. Violations are recorded (the message still flows) so the run stays
// comparable with the schedule validator's post-hoc sweep.
func (e *Engine) checkCapacity(from, to int) {
	capN := e.M.Capacity()
	start := e.now + e.M.O
	end := start + e.M.L
	ps, qs := &e.procs[from], &e.procs[to]
	e.pruneEnds(&ps.outEnds, start)
	e.pruneEnds(&qs.inEnds, start)
	e.nCapChecks++
	if ps.outEnds.Len()+1 > capN {
		e.violate(from, schedule.Violation{
			Kind: schedule.VCapacity,
			Msg: fmt.Sprintf("sim: %d messages in transit from proc %d at time %d (capacity %d)",
				ps.outEnds.Len()+1, from, start, capN),
		})
	}
	if qs.inEnds.Len()+1 > capN {
		e.violate(to, schedule.Violation{
			Kind: schedule.VCapacity,
			Msg: fmt.Sprintf("sim: %d messages in transit to proc %d at time %d (capacity %d)",
				qs.inEnds.Len()+1, to, start, capN),
		})
	}
	e.ends.Push(&ps.outEnds, end)
	e.ends.Push(&qs.inEnds, end)
}

// pruneEnds drops leading interval ends that are at or before s. Ends are
// pushed in nondecreasing order, so the expired ones leave from the front.
func (e *Engine) pruneEnds(l *slab.List, s logp.Time) {
	for l.Len() > 0 && e.ends.Front(l) <= s {
		e.ends.Pop(l)
	}
}

// TickTo advances simulation time to t, processing all arrivals and (in
// Buffered mode) buffer drains with arrival/availability bookkeeping.
func (e *Engine) TickTo(t logp.Time) {
	for e.now < t {
		e.now++
		e.processArrivals()
		if e.TS != nil {
			e.TS.MaybeSample(int64(e.now))
		}
	}
}

// Tick advances one time step.
func (e *Engine) Tick() { e.TickTo(e.now + 1) }

// processArrivals handles every message arriving at the current instant and,
// in Buffered mode, lets each processor with a non-empty buffer receive one
// buffered message if its receive port is free.
func (e *Engine) processArrivals() {
	for e.inflight.len() > 0 && e.inflight.peek().Arrive <= e.now {
		msg := e.inflight.pop()
		e.nEvents++
		if e.nEvents-e.flushedEvents >= liveFlushEvery {
			mEvents.Add(e.nEvents - e.flushedEvents)
			e.flushedEvents = e.nEvents
			gInflight.Set(int64(e.inflight.len()))
		}
		switch e.Mode {
		case Strict:
			if !e.canRecvAt(msg.To, msg.Arrive) {
				e.violate(msg.To, schedule.Violation{
					Kind: schedule.VGap,
					Msg: fmt.Sprintf("sim: proc %d receive port busy for item %d arriving at %d",
						msg.To, msg.Item, msg.Arrive),
				})
				// Receive anyway so the run can continue and report more.
			}
			e.receive(msg, msg.Arrive)
		case Buffered:
			e.enqueue(msg)
		}
	}
	if e.Mode == Buffered && len(e.buffered) > 0 {
		e.drain()
	}
}

// enqueue puts an arrival into its destination's input buffer.
func (e *Engine) enqueue(msg Msg) {
	ps := &e.procs[msg.To]
	if ps.buffer.Len() == 0 {
		e.buffered = append(e.buffered, int32(msg.To))
	}
	e.msgs.Push(&ps.buffer, msg)
	ps.maxBuffer = max(ps.maxBuffer, ps.buffer.Len())
	e.bufferedNow++
	if e.Tracer != nil {
		pid := e.tracePID()
		e.Tracer.Counter(pid, "inflight", int64(e.now), int64(e.inflight.len()))
		e.Tracer.Counter(pid, "buffered", int64(e.now), int64(e.bufferedNow))
	}
	if e.BufferCap > 0 && ps.buffer.Len() > e.BufferCap {
		e.violate(msg.To, schedule.Violation{
			Kind: schedule.VCapacity,
			Msg: fmt.Sprintf("sim: proc %d buffer exceeds cap %d at time %d",
				msg.To, e.BufferCap, e.now),
		})
	}
}

// drain lets every buffered processor whose receive port is free take the
// front of its buffer, in processor order. Duplicates (already-held items)
// are received too — schedules decide what they send; the engine just
// models the machine. A buffer is in the in-flight total order
// (compareFlight), so ties on (Arrive, Item) resolve by sender.
func (e *Engine) drain() {
	if !slices.IsSorted(e.buffered) {
		slices.Sort(e.buffered)
	}
	keep := e.buffered[:0]
	for _, p := range e.buffered {
		ps := &e.procs[p]
		if e.canRecvAt(int(p), e.now) {
			msg := e.msgs.Front(&ps.buffer)
			e.msgs.Pop(&ps.buffer)
			e.bufferedNow--
			if e.Tracer != nil {
				e.Tracer.Counter(e.tracePID(), "buffered", int64(e.now), int64(e.bufferedNow))
			}
			e.receive(msg, e.now)
		}
		if ps.buffer.Len() > 0 {
			keep = append(keep, p)
		}
	}
	e.buffered = keep
}

// nextRecvFree returns the earliest time a buffered processor can receive
// again, or ok false when nothing is buffered.
func (e *Engine) nextRecvFree() (t logp.Time, ok bool) {
	for _, p := range e.buffered {
		ps := &e.procs[p]
		if at := max(ps.lastRecvStart+e.M.G, ps.busyUntil); !ok || at < t {
			t, ok = at, true
		}
	}
	return t, ok
}

// receive performs the reception of msg beginning at time t.
func (e *Engine) receive(msg Msg, t logp.Time) {
	ps := &e.procs[msg.To]
	ps.lastRecvStart = t
	if end := t + e.M.O; end > ps.busyUntil {
		ps.busyUntil = end
	}
	e.avail.setMin(msg.To, msg.Item, t+e.M.O)
	e.executed.Recv(msg.To, t, msg.Item, msg.From)
	if wait := t - msg.Arrive; wait > 0 {
		mRecvWait.Observe(int64(wait))
	}
	if e.Tracer != nil {
		pid := e.tracePID()
		e.Tracer.Span(pid, msg.To, "recv", int64(t), int64(e.M.O),
			obs.A("item", msg.Item), obs.A("from", msg.From),
			obs.A("waited", int64(t-msg.Arrive)))
		e.Tracer.Counter(pid, "inflight", int64(t), int64(e.inflight.len()))
	}
}

// Drain advances time until no messages are in flight or buffered, up to the
// given horizon; it returns the time of quiescence (or the horizon).
func (e *Engine) Drain(horizon logp.Time) logp.Time {
	for e.now < horizon {
		if e.inflight.len() == 0 && !e.anyBuffered() {
			return e.now
		}
		e.Tick()
	}
	return e.now
}

func (e *Engine) anyBuffered() bool { return e.bufferedNow > 0 }

// Violations returns a copy of the violations recorded so far. The copy is
// the caller's: recycling the engine with Reset (which truncates and reuses
// the internal slice) cannot corrupt it.
func (e *Engine) Violations() []schedule.Violation {
	return append([]schedule.Violation(nil), e.violations...)
}

// Executed returns a copy of the executed schedule (all sends and the recvs
// as they actually happened), in the event order (schedule.CompareEvents).
// It sorts with the engine's scratch, so it must not run concurrently with
// other calls on the engine.
func (e *Engine) Executed() *schedule.Schedule {
	s := &schedule.Schedule{M: e.M, Events: slices.Clone(e.executed.Events)}
	e.sorter.Sort(s.Events)
	return s
}

// MaxBuffer returns the largest input-buffer occupancy observed at any
// processor (0 in Strict mode).
func (e *Engine) MaxBuffer() int {
	mx := 0
	for i := range e.procs {
		if e.procs[i].maxBuffer > mx {
			mx = e.procs[i].maxBuffer
		}
	}
	return mx
}

// ItemCompletion returns, for the given item, the latest availability time
// across all processors in procs (or all processors if procs is nil), and
// whether every one of them has the item.
func (e *Engine) ItemCompletion(item int, procs []int) (logp.Time, bool) {
	if procs == nil {
		procs = make([]int, e.M.P)
		for i := range procs {
			procs[i] = i
		}
	}
	var mx logp.Time
	for _, p := range procs {
		t, ok := e.avail.get(p, item)
		if !ok {
			return 0, false
		}
		if t > mx {
			mx = t
		}
	}
	return mx, true
}

// Report summarizes a completed run.
type Report struct {
	Finish     logp.Time // time the last reception's availability lands
	MaxBuffer  int
	Violations []schedule.Violation
}

// Run replays the send events of a schedule on a fresh engine in the given
// mode. Origin items must be supplied (item -> origin). The recv events of
// the input schedule are ignored — the engine derives receptions from the
// machine's rules — so comparing the executed schedule against the input's
// recv events is a way to check a scheduler's own arrival bookkeeping.
//
// Callers replaying many schedules should allocate one Engine and use
// Reset + Replay, which reuses every internal allocation.
func Run(s *schedule.Schedule, mode Mode, origins map[int]schedule.Origin) (*Engine, Report) {
	e := New(s.M, mode)
	return e, e.Replay(s, origins)
}

// Replay replays the send events of s on the engine, which must have been
// freshly created (New) or recycled (Reset) for s.M. See Run for semantics.
// Sends run in the event order (schedule.CompareEvents) — time, then
// sender, then item, destination and duration — so the replay never depends
// on the input event ordering.
func (e *Engine) Replay(s *schedule.Schedule, origins map[int]schedule.Origin) Report {
	if e.TS != nil {
		e.registerProbes()
	}
	if e.Tracer != nil {
		pid := e.tracePID()
		mode := "strict"
		if e.Mode == Buffered {
			mode = "buffered"
		}
		e.Tracer.NameProcess(pid, fmt.Sprintf("sim-%s %v", mode, e.M))
		for p := 0; p < e.M.P; p++ {
			e.Tracer.NameThread(pid, p, fmt.Sprintf("P%d", p))
		}
		e.Tracer.NameThread(pid, e.M.P, "engine")
	}
	for item, og := range origins {
		e.Inject(og.Proc, item, og.Time)
	}
	sends := e.sendBuf[:0]
	var horizon logp.Time
	for _, ev := range s.Events {
		if ev.Op != schedule.OpSend {
			continue
		}
		if ev.Time < 0 {
			// The clock starts at 0; a send before then can never execute.
			// Record it instead of silently spinning past it.
			e.violate(ev.Proc, schedule.Violation{
				Kind: "replay",
				Msg: fmt.Sprintf("sim: proc %d send of item %d at negative time %d",
					ev.Proc, ev.Item, ev.Time),
			})
			continue
		}
		sends = append(sends, ev)
		if ev.Time > horizon {
			horizon = ev.Time
		}
	}
	if !slices.IsSortedFunc(sends, schedule.CompareEvents) {
		mSendSorts.Inc()
		e.sorter.Sort(sends)
	}
	e.sendBuf = sends
	horizon += s.M.O + s.M.L + 1
	// Safety net against a stuck clock. Buffered drains need up to
	// max(g, o) cycles per queued message after the last arrival, so the
	// bound must scale with the number of sends — a per-machine constant
	// would silently truncate long single-destination drains.
	step := s.M.G
	if s.M.O > step {
		step = s.M.O
	}
	limit := horizon + logp.Time(len(sends)+1)*step + s.M.G + s.M.O + 2
	i := 0
	for {
		for i < len(sends) && sends[i].Time == e.Now() {
			ev := sends[i]
			if err := e.Send(ev.Proc, ev.Item, ev.Peer); err != nil {
				e.violate(ev.Proc, schedule.Violation{
					Kind: "replay", Msg: err.Error(),
				})
			}
			i++
		}
		if i >= len(sends) && e.inflight.len() == 0 && !e.anyBuffered() {
			break
		}
		if e.Now() > limit {
			break // safety net: the clock should never get this far
		}
		// Nothing happens between the next send, the next arrival and (in
		// Buffered mode) the next instant a buffered processor's receive
		// port frees, so idle stretches are skipped: jump straight there.
		next := limit + 1
		if i < len(sends) {
			next = sends[i].Time
		}
		if e.inflight.len() > 0 {
			next = min(next, e.inflight.peek().Arrive)
		}
		if at, ok := e.nextRecvFree(); ok {
			next = min(next, at)
		}
		if next > e.now+1 {
			e.now = next - 1 // Tick advances the final step
		}
		e.Tick()
	}
	// Flush the run's metric tallies: one atomic add per counter per replay
	// (minus what the amortized live flush already pushed).
	mReplays.Inc()
	mEvents.Add(e.nEvents - e.flushedEvents)
	e.flushedEvents = e.nEvents
	gInflight.Set(int64(e.inflight.len()))
	mCapChecks.Add(e.nCapChecks)
	var nSends, nRecvs int64
	for _, ev := range e.executed.Events {
		switch ev.Op {
		case schedule.OpSend:
			nSends++
		case schedule.OpRecv:
			nRecvs++
		}
	}
	mSends.Add(nSends)
	mRecvs.Add(nRecvs)
	mViolations.Add(int64(len(e.violations)))
	return Report{
		Finish:     e.finishTime(),
		MaxBuffer:  e.MaxBuffer(),
		Violations: append([]schedule.Violation(nil), e.violations...),
	}
}

func (e *Engine) finishTime() logp.Time {
	return e.avail.latest()
}

// registerProbes points the attached collector's sim series at this engine's
// state. Registration is idempotent (Probe replaces the function, keeping
// recorded points), so Reset + Replay reuse keeps one continuous series per
// name across runs.
func (e *Engine) registerProbes() {
	e.TS.Probe("sim.now", func() int64 { return int64(e.now) })
	e.TS.Probe("sim.inflight", func() int64 { return int64(e.inflight.len()) })
	e.TS.Probe("sim.events", func() int64 { return e.nEvents })
	e.TS.Probe("sim.buffered", func() int64 { return int64(e.bufferedNow) })
	e.TS.Probe("sim.violations", func() int64 { return int64(len(e.violations)) })
}

// Stats is the port-activity summary for one run. It is the shared
// schedule.Stats shape (also produced by the event-driven runtime), extended
// since the run-global-only version with a per-processor busy/idle
// breakdown and per-processor buffered-queue high-water marks.
type Stats = schedule.Stats

// ProcMaxBuffers returns the input-buffer high-water mark per processor
// (all zeros in Strict mode).
func (e *Engine) ProcMaxBuffers() []int {
	mb := make([]int, len(e.procs))
	for i := range e.procs {
		mb[i] = e.procs[i].maxBuffer
	}
	return mb
}

// Stats computes port-activity statistics from the executed schedule via
// the shared schedule.ComputeStats, so the result is field-for-field
// comparable with runtime.Runtime.Stats in the conformance harness.
func (e *Engine) Stats() Stats {
	return schedule.ComputeStats(&e.executed, e.finishTime(), e.ProcMaxBuffers())
}
