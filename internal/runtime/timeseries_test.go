package runtime

import (
	"strings"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/obs/timeseries"
)

// TestRuntimeTimeseries attaches a collector to a runtime replay and checks
// the virtual-time series cover the run: the clock advances, the pending
// work drains, and the worker-pool occupancy series (aggregate and
// per-chunk-shard on a machine this small) saw activity.
func TestRuntimeTimeseries(t *testing.T) {
	m := logp.MustNew(16, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)

	rt, err := New(m, Strict, ReplayHandlers(s, core.Origins(0)))
	if err != nil {
		t.Fatal(err)
	}
	ts := timeseries.New(0)
	rt.TS = ts
	rt.Quiesce(1000)

	for _, name := range []string{
		"runtime.now", "runtime.inflight", "runtime.queued",
		"runtime.procs.dirty", "runtime.chunks.busy",
	} {
		if _, ok := ts.Series(name); !ok {
			t.Errorf("series %s missing", name)
		}
	}
	var sawChunk bool
	var busyMax, dirtyMax, chunkMax int64
	for _, sum := range ts.Summary() {
		if strings.HasPrefix(sum.Name, "runtime.chunk") && strings.HasSuffix(sum.Name, ".dirty") {
			sawChunk = true
			chunkMax = max(chunkMax, sum.Max)
		}
		switch sum.Name {
		case "runtime.chunks.busy":
			busyMax = sum.Max
		case "runtime.procs.dirty":
			dirtyMax = sum.Max
		}
	}
	if !sawChunk {
		t.Errorf("no per-chunk occupancy series on a %d-chunk runtime", len(rt.chunks))
	}
	if busyMax < 1 || dirtyMax < 1 || chunkMax < 1 {
		t.Errorf("occupancy never rose: chunks.busy max %d, procs.dirty max %d, per-chunk max %d",
			busyMax, dirtyMax, chunkMax)
	}
	inflight, _ := ts.Series("runtime.inflight")
	if last := inflight[len(inflight)-1].Val; last != 0 {
		t.Errorf("runtime.inflight did not drain: %d", last)
	}
	now, _ := ts.Series("runtime.now")
	if len(now) < 2 || now[len(now)-1].Val <= now[0].Val {
		t.Errorf("runtime.now did not advance: %v", now)
	}
}
