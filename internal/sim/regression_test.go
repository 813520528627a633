package sim

import (
	"slices"
	"testing"

	"logpopt/internal/logp"
	"logpopt/internal/schedule"
)

// The buffered drain used to pick among same-instant arrivals with a
// comparator keyed only on (Arrive, Item), so two copies of one item from
// different senders drained in buffer-insertion order instead of by sender.
// Ties on arrival time and item must resolve by the lower sender id, however
// the sends were issued: here the higher sender sends first, by hand and in
// the schedule a replay reads.
func TestBufferedDrainTieBreakBySender(t *testing.T) {
	m := logp.Postal(3, 2)
	check := func(how string, e *Engine) {
		t.Helper()
		var recvs []schedule.Event
		for _, ev := range e.Executed().Events {
			if ev.Op == schedule.OpRecv {
				recvs = append(recvs, ev)
			}
		}
		if len(recvs) != 2 || recvs[0].Peer != 1 || recvs[1].Peer != 2 || recvs[0].Time >= recvs[1].Time {
			t.Fatalf("%s: receptions %v, want sender 1 drained first, then sender 2", how, recvs)
		}
	}

	e := New(m, Buffered)
	e.Inject(1, 5, 0)
	e.Inject(2, 5, 0)
	for _, from := range []int{2, 1} {
		if err := e.Send(from, 5, 0); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain(20)
	check("Send", e)

	s := &schedule.Schedule{M: m}
	s.Send(2, 0, 5, 0)
	s.Send(1, 0, 5, 0)
	e.Reset(m, Buffered)
	e.Inject(2, 5, 0)
	if rep := e.Replay(s, map[int]schedule.Origin{5: {Proc: 1}}); len(rep.Violations) != 0 {
		t.Fatalf("replay: %v", rep.Violations)
	}
	check("Replay", e)
}

// Report.Violations and the Violations() accessor used to alias the
// engine-internal slice, which Reset truncates and Replay reuses — so a
// report taken before a Reset was silently rewritten by the next replay.
func TestReportViolationsSurviveReset(t *testing.T) {
	m := logp.Postal(2, 2)
	bad1 := &schedule.Schedule{M: m}
	bad1.Send(0, 0, 0, 0) // self-send
	bad2 := &schedule.Schedule{M: m}
	bad2.Send(0, 0, 0, 7) // out of range: a different violation message
	og := map[int]schedule.Origin{0: {Proc: 0}}

	e := New(m, Strict)
	rep1 := e.Replay(bad1, og)
	if len(rep1.Violations) != 1 {
		t.Fatalf("replay of bad1: %v", rep1.Violations)
	}
	msg := rep1.Violations[0].Msg
	vs := e.Violations()

	e.Reset(m, Strict)
	e.Replay(bad2, og)

	if rep1.Violations[0].Msg != msg {
		t.Fatalf("earlier Report rewritten by engine reuse: %q", rep1.Violations[0].Msg)
	}
	if vs[0].Msg != msg {
		t.Fatalf("Violations() copy rewritten by engine reuse: %q", vs[0].Msg)
	}
}

// The buffered-drain safety net used to cap the clock at a per-machine
// constant past the last arrival, truncating long drains: a queue that
// builds up at one receiver needs time proportional to the number of queued
// messages, not to P*g. All 60 receptions must execute.
func TestBufferedDrainNotTruncated(t *testing.T) {
	m := logp.Postal(3, 9)
	s := &schedule.Schedule{M: m}
	for i := 0; i < 30; i++ {
		s.Send(0, logp.Time(i), 0, 2)
		s.Send(1, logp.Time(i), 1, 2)
	}
	og := map[int]schedule.Origin{0: {Proc: 0}, 1: {Proc: 1}}
	e, rep := Run(s, Buffered, og)
	recvs := 0
	for _, ev := range e.Executed().Events {
		if ev.Op == schedule.OpRecv {
			recvs++
		}
	}
	if recvs != 60 {
		t.Fatalf("%d receptions executed, want 60 (drain truncated)", recvs)
	}
	// Two arrivals per step at one receiver necessarily oversubscribes the
	// inbound capacity — that is what makes the queue grow — but nothing
	// else may be flagged.
	for _, v := range rep.Violations {
		if v.Kind != schedule.VCapacity {
			t.Fatalf("unexpected violation: %v", v)
		}
	}
}

// Sends scheduled before time zero can never execute; they used to be
// silently skipped, now they are recorded.
func TestNegativeTimeSendRecorded(t *testing.T) {
	m := logp.Postal(2, 3)
	s := &schedule.Schedule{M: m}
	s.Send(0, -2, 0, 1)
	e, rep := Run(s, Strict, map[int]schedule.Origin{0: {Proc: 0}})
	if len(rep.Violations) != 1 {
		t.Fatalf("violations %v, want exactly one", rep.Violations)
	}
	if len(e.Executed().Events) != 0 {
		t.Fatal("a negative-time send must not execute")
	}
}

// The simulator enforces the LogP capacity bound ceil(L/g) like the
// validator does: more than Capacity() messages in transit toward one
// processor records a violation (the messages still flow).
func TestCapacityViolationRecorded(t *testing.T) {
	m := logp.Postal(6, 4) // capacity ceil(4/1) = 4
	s := &schedule.Schedule{M: m}
	og := make(map[int]schedule.Origin)
	for i := 0; i < 5; i++ {
		s.Send(i, 0, i, 5)
		og[i] = schedule.Origin{Proc: i}
	}
	_, rep := Run(s, Buffered, og)
	found := false
	for _, v := range rep.Violations {
		if v.Kind == schedule.VCapacity {
			found = true
		} else {
			t.Errorf("unexpected violation: %v", v)
		}
	}
	if !found {
		t.Fatalf("5 concurrent messages to one proc on capacity-4 machine recorded no violation: %v", rep.Violations)
	}
}

// Strict-mode arrivals at one instant are received in the in-flight order
// (destination, then item, then sender), whatever order they were sent in:
// the first to pop at a port is received cleanly and the rest violate. The
// sends below are in the event order (by sender), which is not the
// in-flight order, so the pinned violations hold only if each instant's
// arrivals are ordered before they pop.
func TestSameInstantArrivalsViolationOrder(t *testing.T) {
	m := logp.Postal(6, 3)
	s := &schedule.Schedule{M: m}
	s.Send(0, 0, 1, 5)
	s.Send(1, 0, 2, 4)
	s.Send(2, 0, 0, 4)
	s.Send(3, 0, 0, 5)
	e := New(m, Strict)
	e.Inject(0, 1, 0)
	e.Inject(1, 2, 0)
	e.Inject(2, 0, 0)
	e.Inject(3, 0, 0)
	rep := e.Replay(s, nil)
	want := []schedule.Violation{
		{Kind: schedule.VGap, Msg: "sim: proc 4 receive port busy for item 2 arriving at 3"},
		{Kind: schedule.VGap, Msg: "sim: proc 5 receive port busy for item 1 arriving at 3"},
	}
	if !slices.Equal(rep.Violations, want) {
		t.Fatalf("violations %v, want %v", rep.Violations, want)
	}
}
