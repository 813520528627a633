package schedule

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"testing"

	"logpopt/internal/logp"
)

// oracleJSON is the reflective encoder WriteJSON replaced: encoding/json
// over a []jsonEvent copy of the events. It is the byte-for-byte reference
// for the hand-written encoder.
func oracleJSON(t testing.TB, s *Schedule) []byte {
	t.Helper()
	js := jsonSchedule{
		Version: 1,
		Machine: jsonMachine{P: s.M.P, L: s.M.L, O: s.M.O, G: s.M.G},
		Events:  make([]jsonEvent, 0, len(s.Events)),
	}
	for _, e := range s.Events {
		js.Events = append(js.Events, jsonEvent{
			Proc: e.Proc, Time: e.Time, Op: e.Op.String(), Item: e.Item, Peer: e.Peer, Dur: e.Dur,
		})
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(js); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkEncoders asserts WriteJSON and AppendJSON both emit the oracle's
// bytes, and that AppendJSON(nil) is sized exactly.
func checkEncoders(t *testing.T, s *Schedule) {
	t.Helper()
	want := oracleJSON(t, s)
	var w bytes.Buffer
	if err := s.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("WriteJSON differs from encoding/json:\ngot  %.300q\nwant %.300q", w.Bytes(), want)
	}
	got := s.AppendJSON(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from encoding/json:\ngot  %.300q\nwant %.300q", got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("AppendJSON(nil): cap %d, len %d", cap(got), len(got))
	}
	wantSum := Summary{Events: len(s.Events), Makespan: s.Makespan()}
	w.Reset()
	sum, err := StreamJSON(&w, s.M, s.Seq())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want) || sum != wantSum {
		t.Fatalf("StreamJSON differs from encoding/json:\ngot  %.300q %+v\nwant %.300q %+v", w.Bytes(), sum, want, wantSum)
	}
	got, sum = AppendSeqJSON(nil, s.M, s.Seq())
	if !bytes.Equal(got, want) || sum != wantSum {
		t.Fatalf("AppendSeqJSON differs from encoding/json:\ngot  %.300q %+v\nwant %.300q %+v", got, sum, want, wantSum)
	}
	if cap(got) != len(got) {
		t.Fatalf("AppendSeqJSON(nil): cap %d, len %d", cap(got), len(got))
	}
}

func TestWriteJSONEdgeCases(t *testing.T) {
	m := logp.MustNew(4, 6, 2, 4)
	cases := []struct {
		name string
		s    *Schedule
	}{
		{"nil events", &Schedule{M: m}},
		{"empty events", &Schedule{M: m, Events: []Event{}}},
		{"zero machine", &Schedule{}},
		{"one send", &Schedule{M: m, Events: []Event{{Proc: 0, Time: 0, Op: OpSend, Item: 0, Peer: 1}}}},
		{"peer zero omitted", &Schedule{M: m, Events: []Event{
			{Proc: 3, Time: 5, Op: OpSend, Item: 3, Peer: 0},
			{Proc: 0, Time: 13, Op: OpRecv, Item: 3, Peer: 0},
		}}},
		{"compute with dur", &Schedule{M: m, Events: []Event{
			{Proc: 2, Time: 20, Op: OpCompute, Item: 1, Peer: -1, Dur: 3},
			{Proc: 2, Time: 23, Op: OpCompute, Item: 0, Peer: -1, Dur: 0},
		}}},
		{"dur on a send", &Schedule{M: m, Events: []Event{{Op: OpSend, Peer: 2, Dur: 7}}}},
		{"negative fields", &Schedule{M: m, Events: []Event{
			{Proc: -1, Time: -8, Op: OpRecv, Item: -3, Peer: -2, Dur: -5},
		}}},
		{"unknown ops", &Schedule{M: m, Events: []Event{
			{Op: 3}, {Op: -1}, {Op: 1 << 40}, {Op: Op(math.MinInt64)}, {Op: Op(math.MaxInt64)},
		}}},
		{"int64 extremes", &Schedule{
			M: logp.Machine{P: math.MaxInt64, L: math.MinInt64, O: math.MaxInt64, G: math.MinInt64},
			Events: []Event{
				{Proc: math.MaxInt64, Time: math.MinInt64, Op: OpSend, Item: math.MinInt64, Peer: math.MaxInt64, Dur: math.MinInt64},
				{Proc: math.MinInt64, Time: math.MaxInt64, Op: OpRecv, Item: math.MaxInt64, Peer: math.MinInt64, Dur: math.MaxInt64},
			},
		}},
		{"powers of ten", &Schedule{M: m, Events: []Event{
			{Proc: 9, Time: 10, Item: 99, Peer: 100, Dur: 999},
			{Proc: -9, Time: -10, Item: -99, Peer: -100, Dur: -1000},
			{Proc: 1e18 - 1, Time: 1e18, Item: -1e18 + 1, Peer: -1e18},
		}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkEncoders(t, c.s) })
	}
}

// TestWriteJSONChunks drives WriteJSON across several flushes and checks
// that no write exceeds the chunk buffer and that the chunks concatenate to
// the oracle's document.
func TestWriteJSONChunks(t *testing.T) {
	s := &Schedule{M: logp.MustNew(1<<20, 6, 2, 4)}
	for i := 0; i < 20000; i++ {
		s.Send(i, logp.Time(i)*4, i%3, -i)
		s.Compute(i, logp.Time(i)*7, logp.Time(i%5), i)
	}
	var cw chunkRecorder
	if err := s.WriteJSON(&cw); err != nil {
		t.Fatal(err)
	}
	if cw.writes < 2 {
		t.Fatalf("a %d-byte document went out in %d write(s)", cw.Len(), cw.writes)
	}
	if cw.largest > chunkSize+maxEventLen {
		t.Fatalf("largest write %d bytes exceeds the %d-byte chunk buffer", cw.largest, chunkSize+maxEventLen)
	}
	if !bytes.Equal(cw.Bytes(), oracleJSON(t, s)) {
		t.Fatal("chunked WriteJSON differs from encoding/json")
	}
}

// TestStreamJSONChunks: StreamJSON flushes exactly where WriteJSON does.
func TestStreamJSONChunks(t *testing.T) {
	s := &Schedule{M: logp.MustNew(1<<20, 6, 2, 4)}
	for i := 0; i < 20000; i++ {
		s.Send(i, logp.Time(i)*4, i%3, -i)
		s.Compute(i, logp.Time(i)*7, logp.Time(i%5), i)
	}
	var want, got chunkRecorder
	if err := s.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := StreamJSON(&got, s.M, s.Seq()); err != nil {
		t.Fatal(err)
	}
	if got.writes != want.writes || got.largest != want.largest || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("StreamJSON: %d writes, largest %d; WriteJSON: %d writes, largest %d",
			got.writes, got.largest, want.writes, want.largest)
	}
}

// TestStreamJSONStopsOnWriteError: the first failed write ends the walk —
// the sequence is told to stop and yields nothing more — and is returned.
func TestStreamJSONStopsOnWriteError(t *testing.T) {
	m := logp.MustNew(1<<20, 6, 2, 4)
	yielded := 0
	seq := func(yield func(Event) bool) {
		for i := 0; i < 100000; i++ {
			yielded++
			if !yield(Event{Proc: i, Time: logp.Time(i), Op: OpSend, Peer: i + 1}) {
				return
			}
		}
	}
	sum, err := StreamJSON(failWriter{}, m, seq)
	if err != io.ErrShortWrite {
		t.Fatalf("got %v, want io.ErrShortWrite", err)
	}
	// The first chunk holds under 2000 of these events; the one that
	// triggered its flush is the last the walk produced.
	if yielded != sum.Events+1 || yielded > 2000 {
		t.Fatalf("walk yielded %d events, encoded %d, after the first write failed", yielded, sum.Events)
	}
}

type chunkRecorder struct {
	bytes.Buffer
	writes, largest int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.writes++
	c.largest = max(c.largest, len(p))
	return c.Buffer.Write(p)
}

func TestWriteJSONPropagatesWriteError(t *testing.T) {
	s := &Schedule{M: logp.MustNew(2, 1, 0, 1)}
	s.Send(0, 0, 0, 1)
	if err := s.WriteJSON(failWriter{}); err != io.ErrShortWrite {
		t.Fatalf("got %v, want io.ErrShortWrite", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrShortWrite }

func TestAppendJSONAppends(t *testing.T) {
	s := &Schedule{M: logp.MustNew(4, 6, 2, 4)}
	s.Send(0, 0, 0, 1)
	s.Recv(1, 8, 0, 0)
	prefix := []byte("prefix:")
	got := s.AppendJSON(prefix)
	if want := append([]byte("prefix:"), oracleJSON(t, s)...); !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	if string(prefix) != "prefix:" {
		t.Fatalf("AppendJSON clobbered its input: %q", prefix)
	}
	// With room to spare, AppendJSON writes in place.
	roomy := make([]byte, 3, 4096)
	if got := s.AppendJSON(roomy); &got[0] != &roomy[0] {
		t.Fatal("AppendJSON reallocated a buffer with enough capacity")
	}
}

// digitBoundaries is every value where a digit writer can slip: 0 through
// 10, 10^k-1, 10^k and 10^k+1 for every power of ten an int64 holds, the
// negative side's -1, and both int64 extremes.
func digitBoundaries() []int64 {
	vs := []int64{-1, math.MinInt64, math.MaxInt64}
	for v := int64(0); v <= 10; v++ {
		vs = append(vs, v)
	}
	for p := int64(10); ; p *= 10 {
		vs = append(vs, p-1, p, p+1)
		if p > math.MaxInt64/10 {
			return vs
		}
	}
}

// TestAppendInt: the in-place digit writer and intLen agree with strconv at
// every digit boundary, whether the buffer has room for the digits (written
// in place) or not (strconv's path).
func TestAppendInt(t *testing.T) {
	for _, v := range digitBoundaries() {
		want := strconv.AppendInt([]byte("x"), v, 10)
		for _, spare := range []int{0, 1, len(want) - 2, 20} {
			b := make([]byte, 1, 1+spare)
			b[0] = 'x'
			if got := appendInt(b, v); !bytes.Equal(got, want) {
				t.Fatalf("appendInt(%d) with %d spare bytes = %q, want %q", v, spare, got, want)
			}
		}
		if n := intLen(v); n != len(want)-1 {
			t.Fatalf("intLen(%d) = %d, want %d", v, n, len(want)-1)
		}
	}
}

// FuzzWriteJSON decodes arbitrary bytes into a machine and events over the
// full int64 range and asserts WriteJSON, AppendJSON and their streaming
// forms StreamJSON and AppendSeqJSON equal the encoding/json oracle byte for
// byte.
func FuzzWriteJSON(f *testing.F) {
	le := binary.LittleEndian
	seed := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = le.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(seed(8, 6, 2, 4, 0, 0, 0, 0, 1, 0, 1, 8, 1, 0, 0, 0))
	f.Add(seed(8, 6, 2, 4, 2, 20, 2, 1, -1, 3))
	f.Add(seed(1, 1, 0, 1, math.MinInt64, math.MaxInt64, 7, -1, math.MinInt64, math.MaxInt64))
	// The digit boundaries, six to an event, so each lands in every field.
	bs := digitBoundaries()
	for i := range bs {
		ev := make([]int64, 6)
		for j := range ev {
			ev[j] = bs[(i+j)%len(bs)]
		}
		ev[2] = int64(i % 3) // cycle through the known ops
		f.Add(seed(append([]int64{bs[i], bs[(i+1)%len(bs)], bs[(i+2)%len(bs)], bs[(i+3)%len(bs)]}, ev...)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int64 {
			if len(data) < 8 {
				data = nil
				return 0
			}
			v := int64(le.Uint64(data))
			data = data[8:]
			return v
		}
		s := &Schedule{M: logp.Machine{P: int(next()), L: next(), O: next(), G: next()}}
		for len(data) > 0 {
			s.Events = append(s.Events, Event{
				Proc: int(next()), Time: next(), Op: Op(next() % 5), Item: int(next()), Peer: int(next()), Dur: next(),
			})
		}
		checkEncoders(t, s)
	})
}
