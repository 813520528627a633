package runtime

import (
	"cmp"
	"math/bits"
	"slices"

	"logpopt/internal/logp"
	"logpopt/internal/schedule"
	"logpopt/internal/slab"
)

// ScheduleHandlers converts a communication schedule into per-processor
// handlers that replay its send events at their scheduled virtual times.
// Receptions are left to the runtime's port discipline, so running the
// handlers and comparing the resulting trace against the schedule's own recv
// events cross-checks the schedule's arrival bookkeeping against a second,
// independently implemented machine.
//
// Replayed messages carry no payload; the item id travels in Message.Item.
// No item-availability checking is done: the handlers transmit ids, not
// values, and trust the schedule. Use ReplayHandlers for the full replay
// semantics the simulator applies.
func ScheduleHandlers(s *schedule.Schedule) []Handler {
	return new(Replayer).handlers(s, nil, false)
}

// ReplayHandlers is ScheduleHandlers under the simulator's replay contract:
// a send is dropped (and recorded as a violation) when the sender does not
// hold the item yet — availability flows from the given origins and from the
// messages this processor actually received, o cycles after each reception —
// or when the destination is out of range, the sender itself, or the
// scheduled time is negative. Port-rule violations are recorded by Send as
// usual. Replaying a schedule through these handlers and through sim.Replay
// must produce identical traces and agree on whether violations occurred;
// the conformance harness (internal/conform) enforces exactly that.
func ReplayHandlers(s *schedule.Schedule, origins map[int]schedule.Origin) []Handler {
	return new(Replayer).Handlers(s, origins)
}

// Replayer is the recyclable state behind ReplayHandlers: one table of send
// lists grouped by sender, one cursor per processor and one availability
// slab, shared by every handler it hands out, instead of a closure and a map
// per processor. Each sender's handler sends what is due now and asks to
// wake at its next send time. A Replayer reused for the next case (with
// Runtime.Reset) keeps its buffers, so a warm replay allocates O(1) objects
// whatever P is.
type Replayer struct {
	m          logp.Machine
	checkAvail bool
	sends      []replaySend // send events grouped by sender, each group in (at, item, peer) order
	start      []int32      // sender p's sends are sends[start[p]:start[p+1]]
	cursor     []int32      // per sender, the next send to replay
	avail      availSlab
	handle     Handler // r.run, bound once
	table      []Handler

	hwSends, hwAvail slab.Watermark
}

// Handlers returns ReplayHandlers(s, origins), reusing r's buffers. The
// handlers of any earlier call on r stop being valid.
func (r *Replayer) Handlers(s *schedule.Schedule, origins map[int]schedule.Origin) []Handler {
	return r.handlers(s, origins, true)
}

func (r *Replayer) handlers(s *schedule.Schedule, origins map[int]schedule.Origin, checkAvail bool) []Handler {
	P := s.M.P
	r.m, r.checkAvail = s.M, checkAvail
	if r.handle == nil {
		r.handle = r.run
	}

	// Group the sends by sender with a counting sort into r.sends.
	r.start = slab.Grow(r.start, P+1)
	clear(r.start)
	n := 0
	for i := range s.Events {
		if ev := &s.Events[i]; ev.Op == schedule.OpSend && ev.Proc >= 0 && ev.Proc < P {
			r.start[ev.Proc+1]++
			n++
		}
	}
	for p := 1; p <= P; p++ {
		r.start[p] += r.start[p-1]
	}
	r.cursor = slab.Grow(r.cursor, P)
	copy(r.cursor, r.start[:P])
	hw := r.hwSends.Update(n)
	if slab.Oversized(cap(r.sends), hw, 1024) {
		r.sends = nil
	}
	r.sends = slab.Grow(r.sends, n)
	for i := range s.Events {
		if ev := &s.Events[i]; ev.Op == schedule.OpSend && ev.Proc >= 0 && ev.Proc < P {
			r.sends[r.cursor[ev.Proc]] = replaySend{at: ev.Time, item: ev.Item, peer: ev.Peer}
			r.cursor[ev.Proc]++
		}
	}
	copy(r.cursor, r.start[:P])

	// Full deterministic key within a sender: ordering by Time alone would
	// make same-instant sends race for the port.
	r.table = slab.Grow(r.table, P)
	for p := 0; p < P; p++ {
		evs := r.sends[r.start[p]:r.start[p+1]]
		r.table[p] = nil
		if len(evs) == 0 {
			continue
		}
		r.table[p] = r.handle
		if !slices.IsSortedFunc(evs, sendOrder) {
			slices.SortFunc(evs, sendOrder)
		}
	}
	if checkAvail {
		r.avail.reset(r, s, origins, &r.hwAvail)
	}
	return r.table
}

// replaySend is one send event of the replayed schedule, without the
// sender (its group says which) and the fields sends do not use.
type replaySend struct {
	at         logp.Time
	item, peer int
}

func sendOrder(a, b replaySend) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.item, b.item); c != 0 {
		return c
	}
	return cmp.Compare(a.peer, b.peer)
}

// run is every sender's handler: note what arrived, replay the sends due
// now, and ask to wake at the next one.
func (r *Replayer) run(pr *Proc, now logp.Time) {
	id := pr.ID
	if r.checkAvail {
		for _, msg := range pr.Received() {
			r.avail.setMin(id, msg.Item, msg.RecvdAt+r.m.O)
		}
	}
	cur, end := r.cursor[id], r.start[id+1]
	moved := now == 0
	if now == 0 {
		// The clock starts at 0; skip (and under replay semantics record)
		// sends scheduled before then so they cannot jam the cursor.
		for cur < end && r.sends[cur].at < 0 {
			ev := &r.sends[cur]
			cur++
			if r.checkAvail {
				pr.Violate("replay", "runtime: proc %d send of item %d at negative time %d",
					pr.ID, ev.item, ev.at)
			}
		}
	}
	for cur < end && r.sends[cur].at == now {
		ev := &r.sends[cur]
		cur++
		moved = true
		if r.checkAvail {
			if ev.peer < 0 || ev.peer >= r.m.P {
				pr.Violate(schedule.VBadProc,
					"runtime: proc %d send of item %d to out-of-range %d", pr.ID, ev.item, ev.peer)
				continue
			}
			if ev.peer == pr.ID {
				pr.Violate(schedule.VSelfSend,
					"runtime: proc %d sends item %d to itself", pr.ID, ev.item)
				continue
			}
			if t, ok := r.avail.get(id, ev.item); !ok || t > now {
				pr.Violate(schedule.VAvail,
					"runtime: proc %d does not hold item %d at time %d", pr.ID, ev.item, now)
				continue
			}
		}
		_ = pr.Send(now, ev.peer, ev.item, nil)
	}
	r.cursor[id] = cur
	if moved && cur < end {
		// A wake requested earlier for this send is still pending when the
		// handler runs for a reception, so only a moved cursor asks again.
		pr.WakeAt(r.sends[cur].at)
	}
}

// availSlab maps (sender, item) to the earliest time the sender holds the
// item. Each sender owns a fixed window of one shared slab, sized up front
// to its origins plus the sends addressed to it, so handlers running
// concurrently write disjoint windows and no processor gets a map. A window
// of up to windowScan records is exactly as long as its need and scanned; a
// larger one is an open-addressing hash table at most half full, so a
// lookup stays O(1) expected however many items the sender holds. Hashing
// the small windows too would nearly double the slab: 478k records instead
// of 261k for the P = 10⁵ reduction of conform.ScaleCases.
type availSlab struct {
	lo   []int32 // sender p's window is recs[lo[p]:lo[p+1]], a power of two long
	recs []availRec
}

type availRec struct {
	item int
	at   logp.Time
	set  bool
}

func (a *availSlab) reset(r *Replayer, s *schedule.Schedule, origins map[int]schedule.Origin, hw *slab.Watermark) {
	P := s.M.P
	a.lo = slab.Grow(a.lo, P+1)
	clear(a.lo)
	sender := func(p int) bool { return p >= 0 && p < P && r.start[p] < r.start[p+1] }
	for _, og := range origins {
		if sender(og.Proc) {
			a.lo[og.Proc+1]++
		}
	}
	for i := range r.sends {
		if p := r.sends[i].peer; sender(p) {
			a.lo[p+1]++
		}
	}
	for p := 1; p <= P; p++ {
		need := a.lo[p]
		if need > windowScan {
			need = 1 << bits.Len32(uint32(2*need-1)) // twice the need, rounded to a power of two
		}
		a.lo[p] = a.lo[p-1] + need
	}
	total := int(a.lo[P])
	if slab.Oversized(cap(a.recs), hw.Update(total), 1024) {
		a.recs = nil
	}
	a.recs = slab.Grow(a.recs, total)
	clear(a.recs)
	for item, og := range origins {
		if sender(og.Proc) {
			a.setMin(og.Proc, item, og.Time)
		}
	}
}

// windowScan is the largest availability window searched by a linear scan.
const windowScan = 8

// slot returns the position in p's window holding item, or the empty one
// where it would go; nil when the window is full without it.
func (a *availSlab) slot(p, item int) *availRec {
	w := a.recs[a.lo[p]:a.lo[p+1]]
	if len(w) <= windowScan {
		for i := range w {
			if !w[i].set || w[i].item == item {
				return &w[i]
			}
		}
		return nil
	}
	mask := len(w) - 1
	h := uint64(item) * 0x9E3779B97F4A7C15
	for i := int(h^h>>31) & mask; ; i = (i + 1) & mask {
		if !w[i].set || w[i].item == item {
			return &w[i]
		}
	}
}

func (a *availSlab) get(p, item int) (logp.Time, bool) {
	if rec := a.slot(p, item); rec != nil && rec.set {
		return rec.at, true
	}
	return 0, false
}

// setMin records item at p from time at, keeping the earliest time. The
// window was sized for every origin and reception of p, so it has room.
func (a *availSlab) setMin(p, item int, at logp.Time) {
	if rec := a.slot(p, item); !rec.set {
		*rec = availRec{item: item, at: at, set: true}
	} else {
		rec.at = min(rec.at, at)
	}
}

// Horizon returns a virtual-time bound by which a strict-mode schedule
// replay is certainly finished: last send + o + L + o + 1.
func Horizon(s *schedule.Schedule) logp.Time {
	var last logp.Time
	for _, ev := range s.Events {
		if ev.Op == schedule.OpSend && ev.Time > last {
			last = ev.Time
		}
	}
	return last + 2*s.M.O + s.M.L + 2
}

// DrainHorizon bounds a buffered-mode replay, where each queued message may
// wait up to max(g, o) cycles for its receive slot after the last arrival:
// Horizon plus that per-message allowance for every send in the schedule.
func DrainHorizon(s *schedule.Schedule) logp.Time {
	step := s.M.G
	if s.M.O > step {
		step = s.M.O
	}
	n := 0
	for _, ev := range s.Events {
		if ev.Op == schedule.OpSend {
			n++
		}
	}
	return Horizon(s) + logp.Time(n+1)*step
}
