package runtime

import (
	"reflect"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/schedule"
	"logpopt/internal/sim"
)

func TestReplayOptimalBroadcast(t *testing.T) {
	machines := []logp.Machine{
		logp.MustNew(8, 6, 2, 4),
		logp.Postal(9, 3),
		logp.Postal(20, 2),
	}
	for _, m := range machines {
		s := core.BroadcastSchedule(m, 0)
		rt, err := New(m, Strict, ScheduleHandlers(s))
		if err != nil {
			t.Fatal(err)
		}
		rt.Run(Horizon(s))
		if vs := rt.Violations(); len(vs) != 0 {
			t.Fatalf("%v: runtime violations: %v", m, vs)
		}
		tr := rt.Trace()
		if vs := schedule.ValidateBroadcast(tr, core.Origins(0)); len(vs) != 0 {
			t.Fatalf("%v: trace violations: %v", m, vs)
		}
		if got, want := tr.LastRecv(), core.B(m, m.P); got != want {
			t.Fatalf("%v: completes at %d, want %d", m, got, want)
		}
	}
}

func TestRuntimeAgreesWithSim(t *testing.T) {
	// The event-driven runtime and the discrete-event simulator are
	// independent implementations of the same machine; their executed
	// schedules for the same input must be identical.
	m := logp.MustNew(12, 7, 1, 3)
	s := core.BroadcastSchedule(m, 0)

	e, rep := sim.Run(s, sim.Strict, core.Origins(0))
	if len(rep.Violations) != 0 {
		t.Fatalf("sim violations: %v", rep.Violations)
	}
	simTrace := e.Executed()

	rt, err := New(m, Strict, ScheduleHandlers(s))
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(Horizon(s))
	rtTrace := rt.Trace()

	if !reflect.DeepEqual(simTrace.Events, rtTrace.Events) {
		t.Fatalf("sim and runtime traces differ:\nsim: %v\nrt:  %v", simTrace.Events, rtTrace.Events)
	}
}

func TestPayloadsFlow(t *testing.T) {
	// Two processors: 0 sends the answer to 1; 1 stores it in State.
	m := logp.Postal(2, 3)
	handlers := []Handler{
		func(p *Proc, now logp.Time) {
			if now == 0 {
				_ = p.Send(now, 1, 0, 42)
			}
		},
		func(p *Proc, now logp.Time) {
			for _, msg := range p.Received() {
				p.State = msg.Payload
			}
		},
	}
	rt, err := New(m, Strict, handlers)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(6)
	if got := rt.Proc(1).State; got != 42 {
		t.Fatalf("payload = %v, want 42", got)
	}
}

func TestStrictPortContentionRecordsAndContinues(t *testing.T) {
	// Regression (conformance satellite): a busy receive port used to abort
	// the whole run with an error, while the simulator records a violation
	// and receives anyway. The unified semantics are the simulator's: the
	// run completes, both messages are delivered, and the contention is
	// visible through Violations().
	m := logp.Postal(3, 4)
	handlers := []Handler{
		func(p *Proc, now logp.Time) {
			if now == 0 {
				_ = p.Send(now, 2, 0, nil)
			}
		},
		func(p *Proc, now logp.Time) {
			if now == 0 {
				_ = p.Send(now, 2, 1, nil)
			}
		},
		nil,
	}
	rt, err := New(m, Strict, handlers)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(10)
	vs := rt.Violations()
	if len(vs) == 0 {
		t.Fatal("simultaneous arrivals recorded no violation")
	}
	if vs[0].Kind != schedule.VGap {
		t.Fatalf("violation kind %q, want %q", vs[0].Kind, schedule.VGap)
	}
	recvs := 0
	for _, ev := range rt.Trace().Events {
		if ev.Op == schedule.OpRecv {
			recvs++
		}
	}
	if recvs != 2 {
		t.Fatalf("%d receptions, want 2 (busy port must still receive)", recvs)
	}
}

func TestViolationsReturnsCopy(t *testing.T) {
	m := logp.Postal(2, 2)
	handlers := []Handler{
		func(p *Proc, now logp.Time) {
			if now == 0 {
				_ = p.Send(now, 0, 0, nil) // self-send: recorded violation
			}
		},
		nil,
	}
	rt, err := New(m, Strict, handlers)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(2)
	a := rt.Violations()
	if len(a) != 1 {
		t.Fatalf("%d violations, want 1", len(a))
	}
	a[0].Kind = "mutated"
	if b := rt.Violations(); b[0].Kind != schedule.VSelfSend {
		t.Fatal("Violations() exposed internal state to caller mutation")
	}
}

func TestBufferedQueues(t *testing.T) {
	m := logp.Postal(3, 4)
	var got []logp.Time
	handlers := []Handler{
		func(p *Proc, now logp.Time) {
			if now == 0 {
				_ = p.Send(now, 2, 0, nil)
			}
		},
		func(p *Proc, now logp.Time) {
			if now == 0 {
				_ = p.Send(now, 2, 1, nil)
			}
		},
		func(p *Proc, now logp.Time) {
			for _, msg := range p.Received() {
				got = append(got, msg.RecvdAt)
			}
		},
	}
	rt, err := New(m, Buffered, handlers)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(10)
	want := []logp.Time{4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reception times %v, want %v", got, want)
	}
	if rt.MaxQueue() != 2 {
		t.Fatalf("max queue %d, want 2", rt.MaxQueue())
	}
}

func TestDoubleSendSameStepRecords(t *testing.T) {
	m := logp.Postal(3, 2)
	handlers := []Handler{
		func(p *Proc, now logp.Time) {
			if now == 0 {
				_ = p.Send(now, 1, 0, nil)
				if err := p.Send(now, 2, 1, nil); err == nil {
					t.Error("second send in one step returned no error")
				}
			}
		},
		nil, nil,
	}
	rt, err := New(m, Strict, handlers)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(5)
	if vs := rt.Violations(); len(vs) != 1 || vs[0].Kind != schedule.VGap {
		t.Fatalf("violations %v, want one %q", vs, schedule.VGap)
	}
	sends := 0
	for _, ev := range rt.Trace().Events {
		if ev.Op == schedule.OpSend {
			sends++
		}
	}
	if sends != 1 {
		t.Fatalf("%d sends in trace, want 1 (illegal send must be dropped)", sends)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(logp.Machine{P: 0, L: 1, G: 1}, Strict, nil); err == nil {
		t.Fatal("invalid machine accepted")
	}
	if _, err := New(logp.Postal(3, 2), Strict, make([]Handler, 2)); err == nil {
		t.Fatal("wrong handler count accepted")
	}
}

func TestQuiesce(t *testing.T) {
	m := logp.Postal(2, 5)
	handlers := []Handler{
		func(p *Proc, now logp.Time) {
			switch now {
			case 0:
				p.WakeAt(3)
			case 3:
				_ = p.Send(now, 1, 0, nil)
			}
		},
		nil,
	}
	rt, err := New(m, Strict, handlers)
	if err != nil {
		t.Fatal(err)
	}
	rt.Quiesce(100)
	if rt.Now() > 20 {
		t.Fatalf("quiesce overran: now=%d", rt.Now())
	}
	tr := rt.Trace()
	if len(tr.Events) != 2 {
		t.Fatalf("trace has %d events, want 2", len(tr.Events))
	}
}

func TestSendToSelfRecords(t *testing.T) {
	m := logp.Postal(3, 2)
	handlers := []Handler{
		func(p *Proc, now logp.Time) {
			if now == 0 {
				if err := p.Send(now, 0, 0, nil); err == nil {
					t.Error("self-send returned no error")
				}
			}
		},
		nil, nil,
	}
	rt, err := New(m, Strict, handlers)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(3)
	if vs := rt.Violations(); len(vs) != 1 || vs[0].Kind != schedule.VSelfSend {
		t.Fatalf("violations %v, want one %q", vs, schedule.VSelfSend)
	}
	if len(rt.Trace().Events) != 0 {
		t.Fatal("self-send must not enter the trace")
	}
}

func TestSendOutOfRangeRecords(t *testing.T) {
	m := logp.Postal(2, 2)
	handlers := []Handler{
		func(p *Proc, now logp.Time) {
			if now == 0 {
				if err := p.Send(now, 7, 0, nil); err == nil {
					t.Error("out-of-range send returned no error")
				}
			}
		},
		nil,
	}
	rt, err := New(m, Strict, handlers)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(3)
	if vs := rt.Violations(); len(vs) != 1 || vs[0].Kind != schedule.VBadProc {
		t.Fatalf("violations %v, want one %q", vs, schedule.VBadProc)
	}
	if len(rt.Trace().Events) != 0 {
		t.Fatal("out-of-range send must not enter the trace")
	}
}

func TestCapacityViolationRecorded(t *testing.T) {
	// Postal machine with L=4, g=1: capacity ceil(L/g)=4 toward any one
	// processor. Five senders hitting proc 5 in the same step exceed it.
	m := logp.Postal(6, 4)
	handlers := make([]Handler, 6)
	for i := 0; i < 5; i++ {
		handlers[i] = func(p *Proc, now logp.Time) {
			if now == 0 {
				_ = p.Send(now, 5, 0, nil)
			}
		}
	}
	rt, err := New(m, Buffered, handlers)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(12)
	found := false
	for _, v := range rt.Violations() {
		if v.Kind == schedule.VCapacity {
			found = true
		}
	}
	if !found {
		t.Fatalf("no capacity violation recorded: %v", rt.Violations())
	}
}

func TestOverheadBlocksSend(t *testing.T) {
	// With o=2, a processor that received at step t is busy through t+2 and
	// must not be able to send at t+1.
	m := logp.MustNew(2, 4, 2, 4)
	gotErr := false
	handlers := []Handler{
		func(p *Proc, now logp.Time) {
			if now == 0 {
				_ = p.Send(now, 1, 0, nil) // arrives at 6
			}
		},
		func(p *Proc, now logp.Time) {
			if len(p.Received()) > 0 {
				p.WakeAt(7)
			}
			if now == 7 { // inside the receive overhead [6, 8)
				if !p.CanSend(now) {
					gotErr = true
					return
				}
				_ = p.Send(now, 0, 1, nil)
			}
		},
	}
	rt, err := New(m, Strict, handlers)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(10)
	if !gotErr {
		t.Fatal("send during receive overhead was allowed")
	}
}

func TestReplayHandlersChecksAvailability(t *testing.T) {
	// Proc 1 forwards item 0 before it could have received it; the replay
	// handler must drop the send and record an availability violation, like
	// sim.Replay does.
	m := logp.Postal(3, 3)
	s := &schedule.Schedule{M: m}
	s.Send(0, 0, 0, 1) // arrives at 3, available at 3
	s.Send(1, 1, 0, 2) // too early: proc 1 holds item 0 only from t=3
	origins := map[int]schedule.Origin{0: {Proc: 0}}
	rt, err := New(m, Strict, ReplayHandlers(s, origins))
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(Horizon(s))
	vs := rt.Violations()
	if len(vs) != 1 || vs[0].Kind != schedule.VAvail {
		t.Fatalf("violations %v, want one %q", vs, schedule.VAvail)
	}
	sends := 0
	for _, ev := range rt.Trace().Events {
		if ev.Op == schedule.OpSend {
			sends++
		}
	}
	if sends != 1 {
		t.Fatalf("%d sends executed, want 1", sends)
	}
}

func TestDeterministicTraces(t *testing.T) {
	// Two runs of the same concurrent program must produce identical traces
	// (the runtime's determinism guarantee).
	m := logp.MustNew(16, 5, 1, 2)
	s := core.BroadcastSchedule(m, 0)
	run := func() []schedule.Event {
		rt, err := New(m, Strict, ScheduleHandlers(s))
		if err != nil {
			t.Fatal(err)
		}
		rt.Run(Horizon(s))
		return rt.Trace().Events
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("concurrent runs produced different traces")
	}
}
