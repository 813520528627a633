package bench

import (
	"fmt"
	"io"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
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
