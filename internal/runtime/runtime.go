// Package runtime is a message-passing runtime that executes LogP
// algorithms as concurrent programs. Each processor is a handler; a
// coordinator advances a virtual clock and a worker pool runs the handlers
// that are ready at each instant. Messages travel between processors with
// the machine's latency while the ports obey the overhead and gap rules.
//
// This is the repository's stand-in for the distributed-memory hardware the
// paper targets: the algorithms' communication schedules run unmodified as
// concurrent message-passing code, with payloads (not just item ids) so that
// combining and summation actually compute.
//
// The runtime is event-driven. A handler runs at time 0 and afterwards only
// at instants where it received a message or asked to be woken with
// Proc.WakeAt; a buffered processor with queued arrivals is also visited
// when its receive port frees. Run and Quiesce jump the clock straight to
// the next arrival or wake, so a replay costs O(E log P) for E events rather
// than steps × P.
//
// Each executed instant runs in three phases. Phase A (coordinator):
// arrivals due now move from the in-flight queue to per-processor receive
// queues, and due wakes are popped; together they form the sorted ready
// list. Phase B (parallel): workers claim chunks of the ready list and, per
// processor, apply the reception discipline and run the handler, touching
// only that processor's state. Phase C (coordinator): receptions, sends,
// wake requests and recorded violations are collected in processor order.
//
// Determinism: each processor's state is touched only by the worker that
// owns its chunk during phase B; phase C merges in processor order, so runs
// are reproducible despite real concurrency.
//
// Violation semantics match the simulator's: breaking a machine rule (busy
// port, gap, capacity, bad destination) records a schedule.Violation and the
// run continues — a busy receive port still receives, an illegal send is
// dropped. Inspect Violations() after the run; a run never aborts. This is
// the contract the conformance harness (internal/conform) relies on to diff
// the runtime against the discrete-event simulator and the validator.
package runtime

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"

	"logpopt/internal/logp"
	"logpopt/internal/obs"
	"logpopt/internal/obs/timeseries"
	"logpopt/internal/schedule"
	"logpopt/internal/slab"
)

// Package-level metric handles. All updates happen in the coordinator's
// single-threaded sections (delivery and collection), a handful of atomic
// adds per executed instant, never inside the handlers' hot work.
var (
	mSends = obs.Default.Counter("runtime.sends")
	mRecvs = obs.Default.Counter("runtime.recvs")
	// runtime.steps counts executed instants only: the instants Run and
	// Quiesce jump over, where nothing arrives and nobody wakes, are not
	// stepped and not counted.
	mSteps = obs.Default.Counter("runtime.steps")
	// Port-wait distribution: cycles a message sat in a receive queue
	// between arrival and reception. Observed only for positive waits, as
	// the simulator's sim.recv.wait.cycles is.
	mPortWait    = obs.Default.Histogram("runtime.portwait.cycles")
	gPendingHigh = obs.Default.Gauge("runtime.pending")
)

// Message is a payload-carrying message between processors.
type Message struct {
	From, To int
	Item     int
	Payload  any
	SentAt   logp.Time
	Arrive   logp.Time // SentAt + o + L
	RecvdAt  logp.Time // time reception began (set on delivery)
}

// Proc is the per-processor handle passed to handlers. Handlers must only
// use their own Proc; the runtime runs handlers for distinct processors
// concurrently.
type Proc struct {
	ID    int
	State any // handler-owned state

	c *chunk // the chunk that runs this processor and logs its output
	// queue holds what arrived but is not yet received. Its slice starts
	// as a one-element window carved from the runtime's message slab; only
	// a processor that outgrows it (a hub's receive queue, say) gets a
	// slice of its own, kept across Reset.
	queue recvQueue
	// This instant's receptions are c.in[inLo:inHi].
	inLo, inHi int32
	maxQueue   int32

	lastSendStart logp.Time
	lastRecvStart logp.Time
	busyUntil     logp.Time
	readyAt       logp.Time // last instant this processor joined the ready list
	wokenAt       logp.Time // last instant a requested wake fired
	outEnds       slab.List // in-network ends of messages in transit from / to
	inEnds        slab.List // this processor, for the capacity bound
}

const minusInf = logp.Time(-1) << 40

// CanSend reports whether this processor's send port is free this step.
// The gap rule (G >= 1, enforced by Machine.Validate) already limits a
// processor to one send start per step.
func (p *Proc) CanSend(now logp.Time) bool {
	return now >= p.lastSendStart+p.c.rt.m.G && now >= p.busyUntil
}

// Violate records a model violation observed at this processor. Call it
// from the processor's own handler; the coordinator merges per-processor
// violations in processor order after each instant, so runs stay
// deterministic.
func (p *Proc) Violate(kind, format string, args ...any) {
	p.c.viol = append(p.c.viol, procViolation{id: int32(p.ID), v: schedule.Violation{
		Kind: kind,
		Msg:  fmt.Sprintf(format, args...),
	}})
}

// Send queues a message for transmission beginning at now, which must be
// the instant the handler was called for. At most one send may start per
// step per processor, and the gap/overhead rules apply. An illegal send
// records a violation, is dropped, and is reported to the caller as an
// error; the run continues either way.
func (p *Proc) Send(now logp.Time, to, item int, payload any) error {
	rt := p.c.rt
	if to < 0 || to >= rt.m.P {
		err := fmt.Errorf("runtime: proc %d: destination %d out of range (P=%d)", p.ID, to, rt.m.P)
		p.Violate(schedule.VBadProc, "%v", err)
		return err
	}
	if to == p.ID {
		err := fmt.Errorf("runtime: proc %d: send of item %d to itself", p.ID, item)
		p.Violate(schedule.VSelfSend, "%v", err)
		return err
	}
	if now != rt.now {
		// The in-flight queue is ordered by send instant; a send stamped
		// with another time would arrive out of turn.
		err := fmt.Errorf("runtime: proc %d: send stamped %d during step %d", p.ID, now, rt.now)
		p.Violate(schedule.VGap, "%v", err)
		return err
	}
	if !p.CanSend(now) {
		err := fmt.Errorf("runtime: proc %d: send port busy at %d", p.ID, now)
		p.Violate(schedule.VGap, "%v", err)
		return err
	}
	p.lastSendStart = now
	if end := now + rt.m.O; end > p.busyUntil {
		p.busyUntil = end
	}
	p.c.out = append(p.c.out, Message{
		From: p.ID, To: to, Item: item, Payload: payload,
		SentAt: now, Arrive: now + rt.m.O + rt.m.L,
	})
	return nil
}

// WakeAt asks for this processor's handler to run at time t even if nothing
// arrives then. Call it from the processor's own handler. Every request
// later than the current instant fires, however many are pending; requests
// at or before the current instant are ignored. A handler that needs every
// step calls WakeAt(now+1).
func (p *Proc) WakeAt(t logp.Time) {
	p.c.wakes = append(p.c.wakes, due{at: t, id: int32(p.ID), wake: true})
}

// Received returns the messages received by this processor during the
// current step (after the port discipline has been applied).
func (p *Proc) Received() []Message { return p.c.in[p.inLo:p.inHi] }

// Handler is the program of one processor. It runs at time 0, and then at
// every instant where the processor received a message (Received is
// non-empty) or a wake it requested with WakeAt comes due — never on idle
// instants. Handlers for distinct processors may run concurrently on pool
// workers.
type Handler func(p *Proc, now logp.Time)

// Runtime executes P handlers in event-driven virtual time.
type Runtime struct {
	// Tracer, when non-nil, records a flight recorder of the run on
	// per-processor tracks (send/recv overhead spans with port-wait
	// annotations, in-flight and queued counters at each executed instant).
	// Timestamps are virtual cycles. TracePID selects the trace process id
	// (defaults to 2 so a runtime overlays cleanly with a simulator engine
	// in one file). Set both before the first Step; both survive Reset.
	Tracer   *obs.Tracer
	TracePID int

	// TS, when non-nil, receives a virtual-time series of the run: the
	// runtime registers probes for its clock, in-flight and queued message
	// counts, and the ready set's occupancy (processors run, chunks
	// claimed, plus a per-chunk series when the partition is small enough
	// to chart), sampled once per collector window at the end of each
	// executed instant. Probes read coordinator-owned state and sampling
	// happens in the coordinator's section of Step, so no synchronization
	// is needed. Set before the first Step, like Tracer.
	TS *timeseries.Collector

	m          logp.Machine
	mode       Mode
	procs      []Proc // contiguous slab; Proc(i) hands out &procs[i]
	handlers   []Handler
	now        logp.Time
	started    bool // time 0 has been stepped
	inflight   fifo
	due        dueQueue
	ends       slab.Lists[logp.Time] // every processor's outEnds and inEnds
	ready      []int32               // processors to run this instant, ascending
	queued     int                   // total messages sitting in per-processor queues
	trace      schedule.Schedule
	sorter     schedule.EventSorter // Trace's scratch
	violations []schedule.Violation

	// chunks is the fixed partition of [0, P) into chunkSize ranges; each
	// instant, chunk i's share of the ready list is ready[rlo:rhi], and
	// workers claim the non-empty shares listed in busy.
	chunks    []chunk
	chunkSize int
	busy      []int32
	workers   int
	next      atomic.Int32
	wg        sync.WaitGroup
	work      func() // rt.worker, bound once so `go rt.work()` allocates nothing

	hwProcs, hwFlight, hwDue, hwEnds, hwTrace, hwViol slab.Watermark
}

// chunk is one contiguous range of processors. rlo and rhi bound its share
// of the current ready list. The rest is its worker's output for phase C,
// logged in ready-list order (processor order): the receptions, sends,
// wake requests and violations of the instant, each tagged with its
// processor, and how many queued messages the discipline consumed. One
// worker runs a chunk, so the logs need no locking, and they grow with an
// instant's activity, not with P.
type chunk struct {
	rt       *Runtime
	rlo, rhi int
	dequeued int
	in, out  []Message
	wakes    []due
	viol     []procViolation
}

// procViolation is a violation logged by processor id.
type procViolation struct {
	id int32
	v  schedule.Violation
}

// Mode mirrors sim: Strict receives arrivals immediately (recording a
// violation if the port is busy); Buffered queues them.
type Mode int

// Reception disciplines.
const (
	Strict Mode = iota
	Buffered
)

// parallelMin is the smallest ready list phase B hands to the worker pool;
// below it, launching workers costs more than running the handlers inline.
const parallelMin = 256

// New creates a runtime for machine m. handlers must have length m.P (nil
// entries mean "idle processor").
func New(m logp.Machine, mode Mode, handlers []Handler) (*Runtime, error) {
	rt := &Runtime{}
	if err := rt.Reset(m, mode, handlers); err != nil {
		return nil, err
	}
	return rt, nil
}

// Reset reinitializes the runtime at time 0 for machine m, mode and
// handlers, reusing the allocations of any previous run: the processor
// slab and its carved buffers, the in-flight and wake queues, the
// capacity-end slab and the executed-event storage. Tracer, TracePID and TS
// are kept. Handles returned by Proc stay valid unless the processor slab
// had to grow or shrink.
//
// Reuse is bounded by decayed retain watermarks, as in sim.Engine.Reset: an
// allocation that has grown to more than 4x the retained need is freed, so
// one huge case does not pin its memory for the rest of a sweep.
func (rt *Runtime) Reset(m logp.Machine, mode Mode, handlers []Handler) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if len(handlers) != m.P {
		return fmt.Errorf("runtime: %d handlers for P=%d", len(handlers), m.P)
	}
	hwProcs := rt.hwProcs.Update(m.P)
	hwFlight := rt.hwFlight.Update(rt.inflight.peak)
	hwDue := rt.hwDue.Update(rt.due.peak)
	hwEnds := rt.hwEnds.Update(rt.ends.Peak())
	hwTrace := rt.hwTrace.Update(len(rt.trace.Events))
	hwViol := rt.hwViol.Update(len(rt.violations))

	rt.m, rt.mode, rt.handlers = m, mode, handlers
	rt.now, rt.started, rt.queued = 0, false, 0
	rt.inflight.reset(hwFlight)
	rt.due.reset(hwDue)
	rt.ends.Reset(hwEnds)
	rt.ready = slab.Reuse(rt.ready, hwProcs, 1024)
	rt.trace.M = m
	rt.trace.Events = slab.Reuse(rt.trace.Events, hwTrace, 1024)
	rt.violations = slab.Reuse(rt.violations, hwViol, 64)

	// Partition processors into contiguous chunks: enough per worker for
	// load balancing (4x oversubscription), but no smaller than 64 so tiny
	// machines run on a single chunk without pool overhead.
	workers := min(goruntime.GOMAXPROCS(0), m.P)
	rt.chunkSize = max((m.P+workers*4-1)/(workers*4), 64)
	n := (m.P + rt.chunkSize - 1) / rt.chunkSize
	rt.chunks = slab.Grow(rt.chunks, n)
	for i := range rt.chunks {
		c := &rt.chunks[i]
		c.rt, c.rlo, c.rhi = rt, 0, 0
		c.truncate()
	}
	rt.busy = slab.Grow(rt.busy, n)[:0]
	rt.workers = min(workers, n)
	if rt.work == nil {
		rt.work = rt.worker
	}

	if cap(rt.procs) < m.P || slab.Oversized(cap(rt.procs), max(m.P, hwProcs), 1024) {
		rt.carveProcs(m.P)
	}
	rt.procs = rt.procs[:m.P]
	for i := range rt.procs {
		p := &rt.procs[i]
		p.ID, p.State, p.c = i, nil, &rt.chunks[i/rt.chunkSize]
		p.inLo, p.inHi = 0, 0
		p.queue.reset(int(p.maxQueue))
		p.lastSendStart, p.lastRecvStart, p.busyUntil = minusInf, minusInf, minusInf
		p.maxQueue = 0
		p.readyAt, p.wokenAt = minusInf, minusInf
		p.outEnds, p.inEnds = slab.List{}, slab.List{}
	}
	return nil
}

// carveProcs allocates a processor slab for p processors and carves every
// processor's first queue slot out of one shared message slab, so a fresh
// runtime costs a handful of allocations, not one or more per processor.
func (rt *Runtime) carveProcs(p int) {
	rt.procs = make([]Proc, p)
	msgs := make([]Message, p)
	for i := range rt.procs {
		rt.procs[i].queue.buf = msgs[i : i : i+1]
	}
}

// Proc returns the handle for processor id (for pre-run state injection).
// Handles stay valid for the runtime's lifetime, across Reset unless the
// processor count changes the slab (see Reset).
func (rt *Runtime) Proc(id int) *Proc { return &rt.procs[id] }

// Now returns the current virtual time.
func (rt *Runtime) Now() logp.Time { return rt.now }

// tracePID returns the pid used for this runtime's trace tracks.
func (rt *Runtime) tracePID() int {
	if rt.TracePID != 0 {
		return rt.TracePID
	}
	return 2
}

// Step executes the current instant and advances the clock by one cycle:
// it delivers the arrivals and fires the wakes due now (phase A), applies
// the reception discipline and runs the ready handlers on the worker pool
// (phase B), then collects receptions, sends, wake requests, trace events
// and recorded violations in processor order (phase C). An instant where
// nothing is due costs O(1).
func (rt *Runtime) Step() {
	now := rt.now
	rt.ready = rt.ready[:0]
	if !rt.started {
		rt.begin()
	}
	rt.collectReady(now)
	rt.runReady(now)
	for _, ci := range rt.busy {
		rt.collect(&rt.chunks[ci], now)
	}
	mSteps.Inc()
	pending := int64(rt.inflight.len() + rt.queued)
	gPendingHigh.Set(pending)
	if rt.Tracer != nil {
		pid := rt.tracePID()
		rt.Tracer.Counter(pid, "inflight", int64(now), int64(rt.inflight.len()))
		rt.Tracer.Counter(pid, "pending", int64(now), pending)
	}
	if rt.TS != nil {
		rt.TS.MaybeSample(int64(now))
	}
	rt.now++
}

// collect is phase C for one chunk: it walks the chunk's logs alongside its
// share of the ready list and, per processor in order, applies the capacity
// bound to the sends and puts them in flight, records sends and receptions
// in the executed trace, merges the violations and queues the wake
// requests; then it empties the logs.
func (rt *Runtime) collect(c *chunk, now logp.Time) {
	rt.queued -= c.dequeued
	in, out, wk, vi := 0, 0, 0, 0
	for _, id := range rt.ready[c.rlo:c.rhi] {
		p := &rt.procs[id]
		in0, out0 := in, out
		for in < len(c.in) && c.in[in].To == int(id) {
			in++
		}
		for out < len(c.out) && c.out[out].From == int(id) {
			out++
		}
		if rt.Tracer != nil {
			rt.traceSpans(c.in[in0:in], c.out[out0:out], now)
		}
		for i := in0; i < in; i++ {
			msg := &c.in[i]
			rt.trace.Recv(msg.To, now, msg.Item, msg.From)
			if wait := now - msg.Arrive; wait > 0 {
				mPortWait.Observe(int64(wait))
			}
		}
		for _, msg := range c.out[out0:out] {
			rt.checkCapacity(msg.From, msg.To, msg.SentAt)
			rt.inflight.push(msg)
			rt.trace.Send(msg.From, msg.SentAt, msg.Item, msg.To)
		}
		for ; vi < len(c.viol) && c.viol[vi].id == id; vi++ {
			rt.violations = append(rt.violations, c.viol[vi].v)
		}
		for ; wk < len(c.wakes) && c.wakes[wk].id == id; wk++ {
			if c.wakes[wk].at > now {
				rt.due.push(c.wakes[wk])
			}
		}
		p.inLo, p.inHi = 0, 0
		if p.queue.len() > 0 {
			// Buffered only: strict discipline empties the queue. Come back
			// when the receive port frees.
			rt.due.push(due{at: max(now+1, p.recvFree()), id: id})
		}
	}
	mSends.Add(int64(len(c.out)))
	mRecvs.Add(int64(len(c.in)))
	clear(c.in) // release payloads to the collector
	clear(c.out)
	c.truncate()
}

// truncate empties the chunk's logs, keeping their storage. Its share of
// the ready list stays until the next instant assigns one, for the
// occupancy probes.
func (c *chunk) truncate() {
	c.dequeued = 0
	c.in, c.out, c.wakes, c.viol = c.in[:0], c.out[:0], c.wakes[:0], c.viol[:0]
}

// traceSpans records one processor's receptions and send of this instant
// on the flight recorder.
func (rt *Runtime) traceSpans(in, out []Message, now logp.Time) {
	pid := rt.tracePID()
	for i := range in {
		msg := &in[i]
		rt.Tracer.Span(pid, msg.To, "recv", int64(now), int64(rt.m.O),
			obs.A("item", msg.Item), obs.A("from", msg.From),
			obs.A("waited", int64(now-msg.Arrive)))
	}
	for i := range out {
		msg := &out[i]
		rt.Tracer.Span(pid, msg.From, "send", int64(msg.SentAt), int64(rt.m.O),
			obs.A("item", msg.Item), obs.A("to", msg.To))
	}
}

// begin sets up the first instant: the trace and time-series metadata, and
// every processor with a handler on the ready list, since all handlers run
// at time 0.
func (rt *Runtime) begin() {
	rt.started = true
	if rt.TS != nil {
		rt.registerProbes()
	}
	if rt.Tracer != nil {
		pid := rt.tracePID()
		mode := "strict"
		if rt.mode == Buffered {
			mode = "buffered"
		}
		rt.Tracer.NameProcess(pid, fmt.Sprintf("runtime-%s %v", mode, rt.m))
		for p := 0; p < rt.m.P; p++ {
			rt.Tracer.NameThread(pid, p, fmt.Sprintf("P%d", p))
		}
	}
	for i, h := range rt.handlers {
		if h != nil {
			rt.procs[i].wokenAt = rt.now
			rt.markReady(int32(i))
		}
	}
}

// collectReady is phase A: it moves the arrivals due now into their
// destinations' receive queues, pops the wakes and port-free checks due now,
// and leaves the processors to run in rt.ready, ascending.
func (rt *Runtime) collectReady(now logp.Time) {
	sorted := true
	mark := func(id int32) {
		if n := len(rt.ready); n > 0 && rt.ready[n-1] > id && rt.procs[id].readyAt != now {
			sorted = false
		}
		rt.markReady(id)
	}
	for rt.inflight.len() > 0 && rt.inflight.peek().Arrive <= now {
		msg := rt.inflight.pop()
		p := &rt.procs[msg.To]
		p.queue.push(msg)
		p.maxQueue = max(p.maxQueue, int32(p.queue.len()))
		rt.queued++
		switch {
		case rt.mode == Strict || p.readyAt == now:
			mark(int32(msg.To))
		case p.queue.len() == 1:
			// A buffered queue that was empty: receive now if the port is
			// free, else come back when it frees. A non-empty queue already
			// has its check pending.
			if at := p.recvFree(); at <= now {
				mark(int32(msg.To))
			} else {
				rt.due.push(due{at: at, id: int32(msg.To)})
			}
		}
	}
	for rt.due.len() > 0 && rt.due.min() <= now {
		for _, d := range rt.due.popMin() {
			if d.wake {
				rt.procs[d.id].wokenAt = now
			}
			mark(d.id)
		}
	}
	if !sorted {
		slices.Sort(rt.ready)
	}
}

// markReady puts processor id on the current instant's ready list once.
func (rt *Runtime) markReady(id int32) {
	p := &rt.procs[id]
	if p.readyAt == rt.now {
		return
	}
	p.readyAt = rt.now
	rt.ready = append(rt.ready, id)
}

// recvFree is the earliest time p's receive port can begin a reception.
func (p *Proc) recvFree() logp.Time {
	return max(p.lastRecvStart+p.c.rt.m.G, p.busyUntil)
}

// maxChunkSeries bounds how many per-chunk occupancy series the runtime
// registers: small partitions get one series per shard, huge ones only the
// aggregates, so a million-processor run never floods the collector.
const maxChunkSeries = 64

// registerProbes points the attached collector's runtime series at this
// runtime's coordinator-owned state.
func (rt *Runtime) registerProbes() {
	rt.TS.Probe("runtime.now", func() int64 { return int64(rt.now) })
	rt.TS.Probe("runtime.inflight", func() int64 { return int64(rt.inflight.len()) })
	rt.TS.Probe("runtime.queued", func() int64 { return int64(rt.queued) })
	// Ready-set occupancy of the last executed instant: processors run and
	// chunks claimed.
	rt.TS.Probe("runtime.procs.dirty", func() int64 { return int64(len(rt.ready)) })
	rt.TS.Probe("runtime.chunks.busy", func() int64 { return int64(len(rt.busy)) })
	if len(rt.chunks) <= maxChunkSeries {
		for i := range rt.chunks {
			c := &rt.chunks[i]
			rt.TS.Probe(fmt.Sprintf("runtime.chunk%02d.dirty", i),
				func() int64 { return int64(c.rhi - c.rlo) })
		}
	}
}

// runReady executes phase B: it splits the ready list into the chunks'
// shares and runs them, inline for short lists and single-worker pools,
// otherwise on workers that claim chunks off a shared counter.
func (rt *Runtime) runReady(now logp.Time) {
	for i := range rt.chunks {
		c := &rt.chunks[i]
		c.rlo, c.rhi = 0, 0
		c.truncate() // drops anything logged outside a handler
	}
	rt.busy = rt.busy[:0]
	for lo := 0; lo < len(rt.ready); {
		ci := int(rt.ready[lo]) / rt.chunkSize
		hi := lo + 1
		for hi < len(rt.ready) && int(rt.ready[hi])/rt.chunkSize == ci {
			hi++
		}
		rt.chunks[ci].rlo, rt.chunks[ci].rhi = lo, hi
		rt.busy = append(rt.busy, int32(ci))
		lo = hi
	}
	if rt.workers <= 1 || len(rt.busy) <= 1 || len(rt.ready) < parallelMin {
		for _, ci := range rt.busy {
			rt.runChunk(&rt.chunks[ci], now)
		}
		return
	}
	rt.next.Store(0)
	rt.wg.Add(rt.workers)
	for w := 0; w < rt.workers; w++ {
		go rt.work()
	}
	rt.wg.Wait()
}

// worker claims chunks of the ready list until none are left.
func (rt *Runtime) worker() {
	defer rt.wg.Done()
	for {
		i := int(rt.next.Add(1)) - 1
		if i >= len(rt.busy) {
			return
		}
		rt.runChunk(&rt.chunks[rt.busy[i]], rt.now)
	}
}

// runChunk runs one chunk's share of the ready list: per processor, it
// applies the reception discipline to queued arrivals and runs the handler
// if it received something, a wake it asked for is due, or this is time 0.
// It touches only the chunk's logs and state owned by its processors.
func (rt *Runtime) runChunk(c *chunk, now logp.Time) {
	for _, id := range rt.ready[c.rlo:c.rhi] {
		p := &rt.procs[id]
		p.inLo = int32(len(c.in))
		if p.queue.len() > 0 {
			c.dequeued += rt.discipline(p, now)
		}
		p.inHi = int32(len(c.in))
		if h := rt.handlers[id]; h != nil && (p.inHi > p.inLo || p.wokenAt == now) {
			h(p, now)
		}
	}
}

// discipline applies the reception rules to p's queued arrivals at time now
// and returns how many messages it consumed. Receptions and violations go
// to p's chunk logs (the coordinator merges them in processor order), never
// to shared state.
func (rt *Runtime) discipline(p *Proc, now logp.Time) int {
	switch rt.mode {
	case Strict:
		// Everything that has arrived must be received now; a busy port is
		// a violation but the reception still happens, exactly as in the
		// simulator.
		n := p.queue.len()
		for p.queue.len() > 0 {
			msg := p.queue.pop()
			if now < p.lastRecvStart+rt.m.G || now < p.busyUntil {
				p.Violate(schedule.VGap, "runtime: proc %d: receive port busy for item %d at %d",
					p.ID, msg.Item, now)
			}
			p.receive(msg, now)
		}
		return n
	case Buffered:
		if now >= p.recvFree() {
			p.receive(p.queue.pop(), now)
			return 1
		}
	}
	return 0
}

// checkCapacity enforces the network capacity bound ceil(L/g) on the message
// sent at time at, recording a violation when exceeded. Sends are processed
// in nondecreasing time order, so per-processor end-time queues suffice.
func (rt *Runtime) checkCapacity(from, to int, at logp.Time) {
	capN := rt.m.Capacity()
	start := at + rt.m.O
	end := start + rt.m.L
	out, in := &rt.procs[from].outEnds, &rt.procs[to].inEnds
	rt.pruneEnds(out, start)
	rt.pruneEnds(in, start)
	if out.Len()+1 > capN {
		rt.violations = append(rt.violations, schedule.Violation{
			Kind: schedule.VCapacity,
			Msg: fmt.Sprintf("runtime: %d messages in transit from proc %d at time %d (capacity %d)",
				out.Len()+1, from, start, capN),
		})
	}
	if in.Len()+1 > capN {
		rt.violations = append(rt.violations, schedule.Violation{
			Kind: schedule.VCapacity,
			Msg: fmt.Sprintf("runtime: %d messages in transit to proc %d at time %d (capacity %d)",
				in.Len()+1, to, start, capN),
		})
	}
	rt.ends.Push(out, end)
	rt.ends.Push(in, end)
}

// pruneEnds drops the interval ends at or before s from a processor's
// capacity queue; ends are pushed in nondecreasing order, so they leave
// from the front.
func (rt *Runtime) pruneEnds(l *slab.List, s logp.Time) {
	for l.Len() > 0 && rt.ends.Front(l) <= s {
		rt.ends.Pop(l)
	}
}

// receive commits one message to p's chunk log at time now, updating only
// p's own port state — safe inside phase B. Trace events and metrics for
// the reception are emitted by the coordinator in phase C from the log.
func (p *Proc) receive(msg Message, now logp.Time) {
	msg.RecvdAt = now
	p.lastRecvStart = now
	if end := now + p.c.rt.m.O; end > p.busyUntil {
		p.busyUntil = end
	}
	p.c.in = append(p.c.in, msg)
}

// nextDue returns the next instant at or after now where something is due:
// time 0 before the run starts, else the earliest arrival or wake. ok is
// false when nothing will ever be due.
func (rt *Runtime) nextDue() (t logp.Time, ok bool) {
	if !rt.started {
		return rt.now, true
	}
	t, ok = logp.Time(0), false
	if rt.inflight.len() > 0 {
		t, ok = rt.inflight.peek().Arrive, true
	}
	if rt.due.len() > 0 && (!ok || rt.due.min() < t) {
		t, ok = rt.due.min(), true
	}
	return max(t, rt.now), ok
}

// advance jumps the clock to the next due instant before limit and reports
// whether there is one; otherwise it leaves the clock at limit.
func (rt *Runtime) advance(limit logp.Time) bool {
	if t, ok := rt.nextDue(); ok && t < limit {
		rt.now = t
		return true
	}
	rt.now = limit
	return false
}

// Run executes the virtual clock until it reaches until (exclusive),
// stepping only the instants where something is due.
func (rt *Runtime) Run(until logp.Time) {
	for rt.now < until && rt.advance(until) {
		rt.Step()
	}
}

// Quiesce runs until communication has started (at least one message sent)
// and then fully drained (nothing in flight or queued, and a step passes
// without new sends), up to horizon. If the handlers never communicate,
// Quiesce runs to the horizon.
func (rt *Runtime) Quiesce(horizon logp.Time) {
	started := false
	for rt.now < horizon && rt.advance(horizon) {
		rt.Step()
		if rt.inflight.len() > 0 {
			started = true
		}
		if started && !rt.Pending() {
			return
		}
	}
}

// Pending reports whether any message is still in flight or queued.
func (rt *Runtime) Pending() bool {
	return rt.inflight.len() > 0 || rt.queued > 0
}

// Trace returns a copy of the executed communication schedule in the event
// order (schedule.CompareEvents). It sorts with the runtime's scratch, so it
// must not run concurrently with other calls on the runtime.
func (rt *Runtime) Trace() *schedule.Schedule {
	s := &schedule.Schedule{M: rt.m, Events: slices.Clone(rt.trace.Events)}
	rt.sorter.Sort(s.Events)
	return s
}

// Violations returns a copy of the model violations recorded so far, in the
// deterministic order the coordinator merged them.
func (rt *Runtime) Violations() []schedule.Violation {
	return append([]schedule.Violation(nil), rt.violations...)
}

// MaxQueue returns the largest receive-queue occupancy seen at any processor.
func (rt *Runtime) MaxQueue() int {
	mx := 0
	for i := range rt.procs {
		mx = max(mx, int(rt.procs[i].maxQueue))
	}
	return mx
}

// ProcMaxQueues returns the receive-queue high-water mark per processor.
// Note that in Strict mode arrivals pass through the queue within the
// delivery step, so the high-water counts simultaneous arrivals (the
// simulator's Strict buffers are always 0 — compare queue marks only
// between buffered backends).
func (rt *Runtime) ProcMaxQueues() []int {
	mq := make([]int, len(rt.procs))
	for i := range rt.procs {
		mq[i] = int(rt.procs[i].maxQueue)
	}
	return mq
}

// Stats computes port-activity statistics from the executed trace via the
// shared schedule.ComputeStats — the parity method to sim.Engine.Stats, so
// the conformance harness can diff the two field by field. The runtime has
// no origin table, so the caller supplies the span (finish time); pass the
// finish recomputed from Trace() and the case's origins.
func (rt *Runtime) Stats(span logp.Time) schedule.Stats {
	return schedule.ComputeStats(&rt.trace, span, rt.ProcMaxQueues())
}
