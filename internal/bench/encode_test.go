package bench

import (
	"fmt"
	"io"
	"testing"

	"logpopt/internal/combine"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/schedule"
)

// BenchmarkScheduleEncode is the BENCH_3.json record of schedule emission:
// schedule.WriteJSON streaming a Figure 1-machine broadcast schedule
// (2(P-1) events) to io.Discard. SetBytes makes MB/s the encoder's
// throughput; -benchmem shows the fixed chunk buffer is its only
// allocation.
func BenchmarkScheduleEncode(b *testing.B) {
	for _, p := range []int{1000, 100000} {
		m := logp.ProfilePaperFig1.WithP(p)
		s, err := core.TreeSchedule(logtime.Tree(m, p), 0, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		size := int64(len(s.AppendJSON(nil)))
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				if err := s.WriteJSON(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeEmit is the BENCH_3.json record of emitting a tree-walk
// collective's schedule JSON at P = 10⁶ on the Figure 1 machine, two ways:
// oracle materializes ß(P) with logtime.Tree, builds the schedule and
// encodes it with WriteJSON; stream walks the counting tables with
// logtime.Seq straight into schedule.StreamJSON. Both write the same bytes
// to io.Discard; SetBytes makes MB/s comparable, and -benchmem shows what
// each path holds.
func BenchmarkTreeEmit(b *testing.B) {
	m := logp.ProfilePaperFig1.WithP(1000000)
	ops := []struct {
		name   string
		op     logtime.Collective
		oracle func() *schedule.Schedule
	}{
		{"broadcast", logtime.Broadcast, func() *schedule.Schedule {
			s, err := core.TreeSchedule(logtime.Tree(m, m.P), 0, nil, 0)
			if err != nil {
				b.Fatal(err)
			}
			return s
		}},
		{"reduce", logtime.Reduce, func() *schedule.Schedule { return combine.ReduceSchedule(m, m.P) }},
		{"scan", logtime.Scan, func() *schedule.Schedule { return combine.ScanSchedule(m, m.P) }},
	}
	for _, o := range ops {
		size := int64(len(o.oracle().AppendJSON(nil)))
		b.Run(fmt.Sprintf("%s/P%d/oracle", o.name, m.P), func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				if err := o.oracle().WriteJSON(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/P%d/stream", o.name, m.P), func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				seq, _ := logtime.Seq(m, o.op)
				if _, err := schedule.StreamJSON(io.Discard, m, seq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
