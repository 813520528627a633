package schedule

import (
	"math/bits"
	"slices"

	"logpopt/internal/logp"
	"logpopt/internal/slab"
)

// A Recorder is an engine's one recording path: the engine passes every
// event it executes to Record, in nondecreasing time, and Trace hands the
// run's trace over in the event order (CompareEvents).
//
// With no reference, the recorder stores every event. Given a reference
// (Expect), it checks the run against it as the run goes and stores nothing
// while they match. It holds one instant at a time: the reference's run of
// events at that time, ref.Events[lo:hi], and a bit per event of the run
// that the engine has executed. The run is in the event order, so each
// processor's events in it are adjacent: an executed event is looked up
// among its processor's and marked. The next instant begins where the run
// ends, once every event of the run is marked. At the first mismatch (an
// event the instant's run lacks or holds fewer times, an instant whose run
// is not fully executed when the next begins, an event earlier than its
// instant, a reference that ends early) the recorder copies what matched,
// the reference up to lo and the marked events of the run, and stores every
// event from there on, as it would have with no reference. A run that ends
// before it reaches the reference's end is a mismatch too. The trace is the
// same either way; only what it costs differs.
type Recorder struct {
	m      logp.Machine
	ref    *Schedule // the reference while the run matches it; nil: storing
	lo, hi int       // the current instant's run of the reference
	at     logp.Time // the current instant
	marked []uint64  // which events of the run were executed
	n      int       // how many
	first  []int32   // by processor: where its events start in the run, if it has any
	events []Event   // the stored events
	hint   int       // the capacity to give events when storing begins
	out    *Schedule // the trace Trace handed over; nil while recording
	sorter EventSorter
	hw     slab.Watermark
}

// Reset starts a run on machine m with no reference. A trace handed over by
// Trace stays the caller's; storage that was not handed over is reused,
// bounded by a decayed watermark (slab.Reuse), so one huge run does not pin
// its memory for the rest of a sweep.
func (r *Recorder) Reset(m logp.Machine) {
	r.events = slab.Reuse(r.events, r.hw.Update(len(r.events)), 1024)
	r.m, r.ref, r.lo, r.hi, r.n, r.hint, r.out = m, nil, 0, 0, 0, 0, nil
}

// Reserve sizes the storage for n events, should the run store any.
func (r *Recorder) Reserve(n int) { r.hint = max(r.hint, n) }

// Expect checks the run against ref, a trace in the event order, which the
// recorder reads and never modifies. Call it after Reset and before the
// first Record. A reference on another machine is a mismatch from the
// start.
func (r *Recorder) Expect(ref *Schedule) {
	r.Reserve(len(ref.Events))
	if ref.M == r.m && len(r.events) == 0 && r.out == nil {
		r.ref = ref
		if slab.Oversized(cap(r.first), r.m.P, 1024) {
			r.first = nil
		}
		r.first = slab.Grow(r.first, r.m.P)
	}
}

// Record notes one executed event. Events come in nondecreasing time; one
// that does not ends a match.
func (r *Recorder) Record(ev Event) {
	if r.out != nil {
		r.resume()
	}
	if r.ref != nil {
		// ev is in the current instant, or begins the next one once the
		// current one is complete (at the start, the empty run is).
		if (r.hi > r.lo && ev.Time == r.at || r.n == r.hi-r.lo && r.next(ev.Time)) && r.mark(ev) {
			return
		}
		r.diverge()
	}
	if len(r.events) == cap(r.events) && r.hint > cap(r.events) {
		r.events = slices.Grow(r.events, r.hint-len(r.events))
	}
	r.events = append(r.events, ev)
}

// next moves the instant to the reference's run at time t, which must
// start where the current run ends.
func (r *Recorder) next(t logp.Time) bool {
	evs := r.ref.Events
	if r.hi == len(evs) || evs[r.hi].Time != t {
		return false
	}
	r.lo, r.at, r.n = r.hi, t, 0
	for ; r.hi < len(evs) && evs[r.hi].Time == t; r.hi++ {
		if p := evs[r.hi].Proc; p >= 0 && p < len(r.first) && (r.hi == r.lo || evs[r.hi-1].Proc != p) {
			r.first[p] = int32(r.hi - r.lo)
		}
	}
	r.marked = slab.Grow(r.marked, (r.hi-r.lo+63)/64)
	clear(r.marked)
	return true
}

// mark marks ev in the instant's run: the first equal event not marked
// yet. It reports false if there is none.
func (r *Recorder) mark(ev Event) bool {
	p := ev.Proc
	if p < 0 || p >= len(r.first) {
		return false
	}
	// first[p] may be left over from an earlier instant: it is taken only
	// where p's events start in this run.
	run, i := r.ref.Events[r.lo:r.hi], int(r.first[p])
	if i >= len(run) || run[i].Proc != p || i > 0 && run[i-1].Proc == p {
		return false
	}
	for ; i < len(run) && run[i].Proc == p; i++ {
		if w, b := i/64, uint64(1)<<(i%64); run[i] == ev && r.marked[w]&b == 0 {
			r.marked[w] |= b
			r.n++
			return true
		}
	}
	return false
}

// diverge ends the match: the recorder stores what matched, and every event
// from here on.
func (r *Recorder) diverge() {
	r.events = slices.Grow(r.events[:0], max(r.hint, r.lo+r.n+1))
	r.events = append(r.events, r.ref.Events[:r.lo]...)
	for w, word := range r.marked[:(r.hi-r.lo+63)/64] {
		for ; word != 0; word &= word - 1 {
			r.events = append(r.events, r.ref.Events[r.lo+64*w+bits.TrailingZeros64(word)])
		}
	}
	r.ref, r.lo, r.hi, r.n = nil, 0, 0, 0
}

// resume reopens a handed-over trace for more events. The caller owns a
// stored trace it was handed, so the recorder stores a copy of it.
func (r *Recorder) resume() {
	if r.out != r.ref {
		r.events = slices.Clone(r.out.Events)
	}
	r.out = nil
}

// Trace ends the recording and returns the run's trace in the event order:
// the reference itself when the run matched it to the end, else the stored
// events, handed over with no copy. The trace is the caller's (a matched
// reference stays shared and read-only): the recorder keeps no hold on it,
// so Reset and the next run leave it intact. Calling Trace again before the
// next Record returns the same trace; a Record after Trace continues the
// run, and the next Trace returns all of its events.
func (r *Recorder) Trace() *Schedule {
	if r.out != nil {
		return r.out
	}
	if r.ref != nil {
		if r.hi == len(r.ref.Events) && r.n == r.hi-r.lo {
			r.out = r.ref
			return r.out
		}
		r.diverge()
	}
	r.sorter.Sort(r.events)
	r.out = &Schedule{M: r.m, Events: r.events}
	r.events = nil
	return r.out
}

// Retained returns the capacity of the event storage the recorder keeps for
// its next run.
func (r *Recorder) Retained() int { return cap(r.events) }
