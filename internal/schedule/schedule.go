// Package schedule defines the concrete representation of LogP communication
// schedules — the artifacts every algorithm in the paper produces — and an
// independent validator that checks a schedule against the LogP model's
// rules: matched sends and receives separated by exactly the latency,
// per-port gap and overhead constraints, the network capacity bound, item
// availability (no processor forwards an item before it has it), and
// broadcast completeness.
//
// Keeping construction (the scheduler packages) separate from validation
// (this package) and execution (package sim) means each optimality claim in
// EXPERIMENTS.md is machine-checked by code that shares nothing with the code
// that produced the schedule.
package schedule

import (
	"fmt"
	"sort"

	"logpopt/internal/logp"
)

// Op is the kind of a schedule event.
type Op int

// Event kinds.
const (
	// OpSend is the start of a message transmission: the sending processor
	// is busy for o cycles from Time, the message is then in flight for L,
	// and arrives (Recv event) at Time + o + L.
	OpSend Op = iota
	// OpRecv is a message arrival: the receiving processor is busy for o
	// cycles from Time; the item becomes available at Time + o.
	OpRecv
	// OpCompute is local work (e.g. one addition in Section 5's summation
	// schedules) occupying the processor for Dur cycles from Time.
	OpCompute
)

func (o Op) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpCompute:
		return "comp"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Event is a single timed action at one processor.
type Event struct {
	Proc int       // processor performing the action
	Time logp.Time // start time
	Op   Op
	Item int       // item id (message payload identity); op tag for OpCompute
	Peer int       // destination (OpSend) / source (OpRecv); -1 for OpCompute
	Dur  logp.Time // duration for OpCompute; ignored otherwise
}

// Schedule is a complete communication schedule for one machine.
type Schedule struct {
	M      logp.Machine
	Events []Event
}

// Append adds an event.
func (s *Schedule) Append(e Event) { s.Events = append(s.Events, e) }

// Send appends a send event.
func (s *Schedule) Send(proc int, at logp.Time, item, to int) {
	s.Append(Event{Proc: proc, Time: at, Op: OpSend, Item: item, Peer: to})
}

// Recv appends a receive event.
func (s *Schedule) Recv(proc int, at logp.Time, item, from int) {
	s.Append(Event{Proc: proc, Time: at, Op: OpRecv, Item: item, Peer: from})
}

// Compute appends a compute event.
func (s *Schedule) Compute(proc int, at logp.Time, dur logp.Time, tag int) {
	s.Append(Event{Proc: proc, Time: at, Op: OpCompute, Item: tag, Peer: -1, Dur: dur})
}

// Sort orders the events by CompareEvents, the one event order.
func (s *Schedule) Sort() { SortEvents(s.Events) }

// Makespan returns the completion time of the schedule: the maximum over
// events of the time at which the event's effect is complete. A recv
// completes at Time + o (item available); a send at Time + o (port free;
// the matching recv carries the arrival); a compute at Time + Dur.
func (s *Schedule) Makespan() logp.Time {
	var mx logp.Time
	for i := range s.Events {
		mx = max(mx, s.Events[i].end(s.M.O))
	}
	return mx
}

// end is the time at which the event's effect is complete on a machine
// with overhead o (see Makespan).
func (e *Event) end(o logp.Time) logp.Time {
	if e.Op == OpCompute {
		return e.Time + e.Dur
	}
	return e.Time + o
}

// LastRecv returns the time of the latest receive event plus the receive
// overhead: the moment the last item becomes available anywhere. For
// broadcast schedules this is the broadcast's running time.
func (s *Schedule) LastRecv() logp.Time {
	var mx logp.Time
	for _, e := range s.Events {
		if e.Op == OpRecv && e.Time+s.M.O > mx {
			mx = e.Time + s.M.O
		}
	}
	return mx
}

// ByProc returns the events grouped by processor, each group sorted by time.
func (s *Schedule) ByProc() [][]Event {
	out := make([][]Event, s.M.P)
	for _, e := range s.Events {
		if e.Proc >= 0 && e.Proc < s.M.P {
			out[e.Proc] = append(out[e.Proc], e)
		}
	}
	for _, evs := range out {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	}
	return out
}

// Recvs returns all receive events of the given item, sorted by time.
func (s *Schedule) Recvs(item int) []Event {
	var out []Event
	for _, e := range s.Events {
		if e.Op == OpRecv && e.Item == item {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}
