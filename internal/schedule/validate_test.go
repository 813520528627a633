package schedule

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"logpopt/internal/logp"
)

func mkPostal(p int, l logp.Time) logp.Machine { return logp.Postal(p, l) }

// wire appends a matched send/recv pair.
func wire(s *Schedule, from, to int, at logp.Time, item int) {
	s.Send(from, at, item, to)
	s.Recv(to, at+s.M.O+s.M.L, item, from)
}

func hasKind(vs []Violation, kind string) bool {
	for _, v := range vs {
		if v.Kind == kind {
			return true
		}
	}
	return false
}

func TestValidateCleanPointToPoint(t *testing.T) {
	s := &Schedule{M: mkPostal(2, 3)}
	wire(s, 0, 1, 0, 42)
	if vs := Validate(s); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func TestUnmatchedSend(t *testing.T) {
	s := &Schedule{M: mkPostal(2, 3)}
	s.Send(0, 0, 1, 1)
	if vs := Validate(s); !hasKind(vs, VUnmatched) {
		t.Fatalf("want unmatched violation, got %v", vs)
	}
}

func TestUnmatchedRecv(t *testing.T) {
	s := &Schedule{M: mkPostal(2, 3)}
	s.Recv(1, 3, 1, 0)
	if vs := Validate(s); !hasKind(vs, VUnmatched) {
		t.Fatalf("want unmatched violation, got %v", vs)
	}
}

func TestWrongLatency(t *testing.T) {
	s := &Schedule{M: mkPostal(2, 3)}
	s.Send(0, 0, 1, 1)
	s.Recv(1, 2, 1, 0) // should be time 3
	vs := Validate(s)
	if !hasKind(vs, VUnmatched) {
		t.Fatalf("want unmatched violations for wrong latency, got %v", vs)
	}
}

func TestSendGapViolation(t *testing.T) {
	m := logp.MustNew(3, 6, 0, 4)
	s := &Schedule{M: m}
	wire(s, 0, 1, 0, 1)
	wire(s, 0, 2, 2, 1) // second send only 2 < g=4 after the first
	if vs := Validate(s); !hasKind(vs, VGap) {
		t.Fatalf("want gap violation, got %v", vs)
	}
}

func TestRecvGapViolation(t *testing.T) {
	m := logp.Postal(3, 4)
	s := &Schedule{M: m}
	wire(s, 0, 2, 0, 1)
	wire(s, 1, 2, 0, 2) // both arrive at proc 2 at time 4
	if vs := Validate(s); !hasKind(vs, VGap) {
		t.Fatalf("want recv gap violation, got %v", vs)
	}
}

func TestBusyOverlapSendRecv(t *testing.T) {
	// With o > 0 a processor cannot be inside send and receive overheads
	// simultaneously.
	m := logp.MustNew(3, 6, 2, 4)
	s := &Schedule{M: m}
	wire(s, 0, 1, 0, 1) // proc 1 busy receiving during [8,10)
	wire(s, 1, 2, 9, 2) // proc 1 starts a send at 9
	if vs := Validate(s); !hasKind(vs, VBusy) {
		t.Fatalf("want busy-overlap violation, got %v", vs)
	}
}

func TestPostalFullDuplexAllowed(t *testing.T) {
	// o=0: a processor may send and receive in the same step.
	m := logp.Postal(3, 3)
	s := &Schedule{M: m}
	wire(s, 0, 1, 0, 1) // proc 1 receives at 3
	wire(s, 1, 2, 3, 2) // proc 1 sends at 3 (item 2 is its own)
	vs := Validate(s)
	if len(vs) != 0 {
		t.Fatalf("full duplex flagged: %v", vs)
	}
}

func TestCapacityViolation(t *testing.T) {
	// L=4, g=1 => capacity 4 in transit. Six procs all send to proc 5
	// arriving at distinct times (satisfying the recv gap) is impossible
	// within capacity if arrivals bunch... instead exceed the *from*
	// capacity: one proc sends 6 messages 1 apart with L=4 — at most 4 can
	// be in flight, the 5th overlaps. With g=1, sends at 0..5 have flights
	// (0,4],(1,5],... at time 4.5 five are in flight.
	m := logp.MustNew(8, 4, 0, 1)
	s := &Schedule{M: m}
	for i := 0; i < 6; i++ {
		wire(s, 0, i+1, logp.Time(i), i)
	}
	// Flights: (i, i+4]; at time just above 3, flights 0..3 are live = 4 =
	// capacity; never 5 since sends are g apart. So this must be CLEAN.
	if vs := Validate(s); len(vs) != 0 {
		t.Fatalf("gap-respecting sends flagged for capacity: %v", vs)
	}
	// Now force a capacity violation on the receiving side by ignoring the
	// recv gap... recv gap would catch it first; instead check the counter
	// directly with a machine where g < L and recvs spaced g apart still
	// fit: capacity ceil(4/1)=4 is exactly the max, so no violation is
	// reachable without a gap violation first — which is the model's
	// consistency (capacity is implied by the gap rule). Assert that.
	s2 := &Schedule{M: m}
	for i := 0; i < 6; i++ {
		wire(s2, i+1, 0, 0, i) // six simultaneous arrivals at proc 0
	}
	vs := Validate(s2)
	if !hasKind(vs, VGap) || !hasKind(vs, VCapacity) {
		t.Fatalf("want gap+capacity violations, got %v", vs)
	}
}

func TestNegativeTimeAndBadProc(t *testing.T) {
	s := &Schedule{M: mkPostal(2, 3)}
	s.Send(0, -1, 1, 1)
	s.Recv(1, -1+3, 1, 0)
	vs := Validate(s)
	if !hasKind(vs, VNegTime) {
		t.Fatalf("want negative-time violation, got %v", vs)
	}
	s2 := &Schedule{M: mkPostal(2, 3)}
	s2.Send(5, 0, 1, 1)
	if vs := Validate(s2); !hasKind(vs, VBadProc) {
		t.Fatalf("want bad-proc violation, got %v", vs)
	}
}

func TestSelfSend(t *testing.T) {
	s := &Schedule{M: mkPostal(2, 3)}
	wire(s, 0, 0, 0, 1)
	if vs := Validate(s); !hasKind(vs, VSelfSend) {
		t.Fatalf("want self-send violation, got %v", vs)
	}
}

func TestBadCompute(t *testing.T) {
	s := &Schedule{M: mkPostal(2, 3)}
	s.Compute(0, 5, 0, 1)
	if vs := Validate(s); !hasKind(vs, VBadCompute) {
		t.Fatalf("want bad-compute violation, got %v", vs)
	}
}

func TestComputeOverlap(t *testing.T) {
	s := &Schedule{M: mkPostal(2, 3)}
	s.Compute(0, 5, 3, 1)
	s.Compute(0, 6, 3, 2)
	if vs := Validate(s); !hasKind(vs, VBusy) {
		t.Fatalf("want busy violation for overlapping computes, got %v", vs)
	}
}

func TestAvailability(t *testing.T) {
	m := mkPostal(3, 3)
	s := &Schedule{M: m}
	wire(s, 0, 1, 0, 9) // arrives at 3
	wire(s, 1, 2, 2, 9) // proc 1 forwards at 2 < 3: violation
	origins := map[int]Origin{9: {Proc: 0, Time: 0}}
	if vs := CheckAvailability(s, origins); !hasKind(vs, VAvail) {
		t.Fatalf("want availability violation, got %v", vs)
	}
	s2 := &Schedule{M: m}
	wire(s2, 0, 1, 0, 9)
	wire(s2, 1, 2, 3, 9) // forwards exactly at availability: fine
	if vs := CheckAvailability(s2, origins); len(vs) != 0 {
		t.Fatalf("legal forwarding flagged: %v", vs)
	}
	// Sending an item the processor never has.
	s3 := &Schedule{M: m}
	wire(s3, 1, 2, 0, 9)
	if vs := CheckAvailability(s3, origins); !hasKind(vs, VAvail) {
		t.Fatalf("want never-has violation, got %v", vs)
	}
}

func TestBroadcastComplete(t *testing.T) {
	m := mkPostal(3, 3)
	origins := map[int]Origin{0: {Proc: 0, Time: 0}}
	s := &Schedule{M: m}
	wire(s, 0, 1, 0, 0)
	vs := CheckBroadcastComplete(s, origins)
	if !hasKind(vs, VComplete) {
		t.Fatalf("want incomplete violation (proc 2 missing), got %v", vs)
	}
	wire(s, 0, 2, 1, 0)
	if vs := CheckBroadcastComplete(s, origins); len(vs) != 0 {
		t.Fatalf("complete broadcast flagged: %v", vs)
	}
	// Duplicate reception.
	wire(s, 1, 2, 4, 0)
	if vs := CheckBroadcastComplete(s, origins); !hasKind(vs, VDuplicate) {
		t.Fatalf("want duplicate violation, got %v", vs)
	}
	// Origin receiving its own item.
	s4 := &Schedule{M: m}
	wire(s4, 0, 1, 0, 0)
	wire(s4, 0, 2, 1, 0)
	wire(s4, 1, 0, 3, 0)
	if vs := CheckBroadcastComplete(s4, origins); !hasKind(vs, VDuplicate) {
		t.Fatalf("want origin-duplicate violation, got %v", vs)
	}
}

func TestMakespanAndLastRecv(t *testing.T) {
	m := logp.MustNew(3, 6, 2, 4)
	s := &Schedule{M: m}
	wire(s, 0, 1, 0, 1) // recv at 8, available at 10
	s.Compute(1, 10, 5, 0)
	if got := s.LastRecv(); got != 10 {
		t.Fatalf("LastRecv = %d, want 10", got)
	}
	if got := s.Makespan(); got != 15 {
		t.Fatalf("Makespan = %d, want 15", got)
	}
}

func TestSortAndByProc(t *testing.T) {
	s := &Schedule{M: mkPostal(3, 2)}
	wire(s, 0, 2, 5, 1)
	wire(s, 0, 1, 0, 1)
	s.Sort()
	if s.Events[0].Time != 0 {
		t.Fatalf("Sort: first event at %d", s.Events[0].Time)
	}
	bp := s.ByProc()
	if len(bp[0]) != 2 || len(bp[1]) != 1 || len(bp[2]) != 1 {
		t.Fatalf("ByProc counts wrong: %d %d %d", len(bp[0]), len(bp[1]), len(bp[2]))
	}
	if bp[0][0].Time != 0 || bp[0][1].Time != 5 {
		t.Fatal("ByProc not sorted by time")
	}
	rs := s.Recvs(1)
	if len(rs) != 2 || rs[0].Time != 2 || rs[1].Time != 7 {
		t.Fatalf("Recvs wrong: %v", rs)
	}
}

func TestFirstError(t *testing.T) {
	if err := FirstError(nil); err != nil {
		t.Fatalf("FirstError(nil) = %v", err)
	}
	one := []Violation{{VGap, "x"}}
	if err := FirstError(one); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("FirstError(one) = %v", err)
	}
	two := []Violation{{VGap, "x"}, {VBusy, "y"}}
	if err := FirstError(two); err == nil || !strings.Contains(err.Error(), "1 more") {
		t.Fatalf("FirstError(two) = %v", err)
	}
}

// TestValidateRejects pins one defect per row that both Validate and
// ValidateDeferred must report under the given kind.
func TestValidateRejects(t *testing.T) {
	m := logp.MustNew(4, 6, 2, 4)
	for _, c := range []struct {
		name string
		ev   Event
		kind string
	}{
		{"unknown op", Event{Proc: 1, Time: 3, Op: Op(7), Item: 0, Peer: 2}, VBadOp},
		{"negative op", Event{Proc: 0, Time: 0, Op: Op(-1), Peer: -1}, VBadOp},
		{"negative proc", Event{Proc: -1, Time: 0, Op: OpCompute, Peer: -1, Dur: 1}, VBadProc},
		{"negative time", Event{Proc: 0, Time: -2, Op: OpCompute, Peer: -1, Dur: 1}, VNegTime},
		{"zero-length compute", Event{Proc: 0, Time: 0, Op: OpCompute, Peer: -1}, VBadCompute},
		{"lone send", Event{Proc: 0, Time: 0, Op: OpSend, Item: 1, Peer: 3}, VUnmatched},
	} {
		s := &Schedule{M: m, Events: []Event{c.ev}}
		if vs := Validate(s); !hasKind(vs, c.kind) {
			t.Errorf("%s: Validate = %v, want a %s violation", c.name, vs, c.kind)
		}
		if vs := ValidateDeferred(s); !hasKind(vs, c.kind) {
			t.Errorf("%s: ValidateDeferred = %v, want a %s violation", c.name, vs, c.kind)
		}
	}
}

// TestCheckersHugeMachine runs every checker on a machine with P = 2^40 and
// three events at processors -5, 0 and 2^40-1: the tables must size by the
// event count, not by P or the processor values.
func TestCheckersHugeMachine(t *testing.T) {
	const top = 1<<40 - 1
	s := &Schedule{M: logp.MustNew(1<<40, 6, 2, 4), Events: []Event{
		{Proc: 0, Time: 0, Op: OpSend, Item: 0, Peer: top},
		{Proc: top, Time: 8, Op: OpRecv, Item: 0, Peer: 0},
		{Proc: -5, Time: 4, Op: OpSend, Item: 0, Peer: 0},
	}}
	origins := map[int]Origin{0: {Proc: 0}}
	if err := SameAsOracle(s, origins); err != nil {
		t.Fatal(err)
	}
	for name, check := range map[string]func(){
		"Validate":          func() { Validate(s) },
		"ValidateDeferred":  func() { ValidateDeferred(s) },
		"CheckAvailability": func() { CheckAvailability(s, origins) },
	} {
		if n := allocated(check); n >= 1<<20 {
			t.Errorf("%s allocated %d bytes on three events", name, n)
		}
	}
}

// allocated returns the bytes fn allocates, from the TotalAlloc delta.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestGroupByProc covers the dense buckets and the overflow group on both
// sides of them: groups come out in ascending processor order with input
// order kept inside each, and Find sees every group.
func TestGroupByProc(t *testing.T) {
	type rec struct{ proc, seq int }
	in := []rec{{5, 0}, {-2, 1}, {1, 2}, {1 << 40, 3}, {-2, 4}, {0, 5}, {5, 6}, {1, 7}, {-7, 8}}
	g := GroupByProc(1<<41, in, func(r *rec) int { return r.proc })
	want := []rec{{-7, 8}, {-2, 1}, {-2, 4}, {0, 5}, {1, 2}, {1, 7}, {5, 0}, {5, 6}, {1 << 40, 3}}
	if !slices.Equal(g.Recs, want) {
		t.Fatalf("Recs = %v, want %v", g.Recs, want)
	}
	var procs []int
	for i := range g.Len() {
		p, rs := g.Group(i)
		procs = append(procs, p)
		if !slices.Equal(g.Find(p), rs) {
			t.Errorf("Find(%d) = %v, want %v", p, g.Find(p), rs)
		}
	}
	if want := []int{-7, -2, 0, 1, 5, 1 << 40}; !slices.Equal(procs, want) {
		t.Errorf("group procs %v, want %v", procs, want)
	}
	if rs := g.Find(2); rs != nil {
		t.Errorf("Find(2) = %v, want nil", rs)
	}
}

// TestValidatorWrappingTimes compares the validator with its oracle on a
// machine whose latency is so close to the int64 limit that send + o + L
// wraps, so arrival order differs from send order.
func TestValidatorWrappingTimes(t *testing.T) {
	m := logp.MustNew(3, math.MaxInt64-20, 1, 2)
	s := &Schedule{M: m}
	for i := range 30 {
		s.Send(0, logp.Time(2*i), 0, 1)
		s.Recv(1, logp.Time(i*i%37)-18, 0, 0)
	}
	if err := SameAsOracle(s, map[int]Origin{0: {Proc: 0}}); err != nil {
		t.Fatal(err)
	}
}
