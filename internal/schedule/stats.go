package schedule

import (
	"logpopt/internal/logp"
)

// ProcStats is one processor's port-activity breakdown for a run.
type ProcStats struct {
	Sends, Recvs int
	BusyCycles   int64 // overhead cycles spent at this processor's ports
	IdleCycles   int64 // span minus busy, clamped at 0
	MaxQueue     int   // input buffer/queue high-water mark (buffered modes)
}

// Stats summarizes port activity for one executed run. It is computed
// uniformly from an executed schedule by ComputeStats, so the simulator and
// the runtime report structurally identical statistics and the
// conformance harness can diff them field by field.
type Stats struct {
	Sends, Recvs   int       // total message events
	BusyCycles     int64     // sum over processors of overhead cycles spent
	Span           logp.Time // finish time of the run
	PortUtilFinish float64   // BusyCycles / (P * Span); 0 when Span == 0
	MaxQueue       int       // largest per-processor queue high-water mark
	PerProc        []ProcStats
}

// ComputeStats derives run statistics from an executed schedule: per-event
// port busy time (o per send/recv; in the postal model, where o == 0, one
// cycle per event so utilization stays meaningful), a per-processor
// breakdown with idle = span - busy, and the buffered-queue high-water marks
// supplied by the engine (maxQueue may be nil or shorter than P; missing
// entries are 0).
func ComputeStats(s *Schedule, span logp.Time, maxQueue []int) Stats {
	st := Stats{PerProc: make([]ProcStats, s.M.P)}
	perEvent := int64(s.M.O)
	if perEvent == 0 {
		perEvent = 1
	}
	for _, ev := range s.Events {
		if ev.Proc < 0 || ev.Proc >= s.M.P {
			continue
		}
		pp := &st.PerProc[ev.Proc]
		switch ev.Op {
		case OpSend:
			st.Sends++
			pp.Sends++
			pp.BusyCycles += perEvent
		case OpRecv:
			st.Recvs++
			pp.Recvs++
			pp.BusyCycles += perEvent
		}
	}
	st.Span = span
	for p := range st.PerProc {
		pp := &st.PerProc[p]
		st.BusyCycles += pp.BusyCycles
		if idle := int64(span) - pp.BusyCycles; idle > 0 {
			pp.IdleCycles = idle
		}
		if p < len(maxQueue) {
			pp.MaxQueue = maxQueue[p]
			if maxQueue[p] > st.MaxQueue {
				st.MaxQueue = maxQueue[p]
			}
		}
	}
	if span > 0 && s.M.P > 0 {
		st.PortUtilFinish = float64(st.BusyCycles) / (float64(s.M.P) * float64(span))
	}
	return st
}
