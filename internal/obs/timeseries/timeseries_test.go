package timeseries

import (
	"bytes"
	"encoding/json"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"logpopt/internal/obs"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Probe("x", func() int64 { return 1 })
	c.Sample(0)
	c.MaybeSample(1)
	c.SetWindow(10)
	stop := c.Start(time.Millisecond)
	stop()
	if c.Len() != 0 || c.Samples() != 0 {
		t.Fatalf("nil collector reports non-zero state")
	}
	if _, ok := c.Series("x"); ok {
		t.Fatalf("nil collector has a series")
	}
	if c.Snapshot() != "" {
		t.Fatalf("nil collector snapshot %q", c.Snapshot())
	}
	var b bytes.Buffer
	if err := c.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"series":[`) {
		t.Fatalf("nil collector JSON %q", b.String())
	}
}

func TestSampleAndAggregates(t *testing.T) {
	c := New(8)
	v := int64(0)
	c.Probe("a", func() int64 { return v })
	c.Probe("b", func() int64 { return -v })
	for i := int64(1); i <= 5; i++ {
		v = i * 10
		c.Sample(i)
	}
	pts, ok := c.Series("a")
	if !ok || len(pts) != 5 {
		t.Fatalf("series a: ok=%v pts=%v", ok, pts)
	}
	if pts[0] != (Point{TS: 1, Val: 10}) || pts[4] != (Point{TS: 5, Val: 50}) {
		t.Fatalf("series a points %v", pts)
	}
	sum := c.Summary()
	if len(sum) != 2 || sum[0].Name != "a" || sum[1].Name != "b" {
		t.Fatalf("summary order %v", sum)
	}
	a := sum[0]
	if a.Count != 5 || a.First != 10 || a.Last != 50 || a.Min != 10 || a.Max != 50 {
		t.Fatalf("summary a %+v", a)
	}
	b := sum[1]
	if b.Min != -50 || b.Max != -10 {
		t.Fatalf("summary b %+v", b)
	}
}

func TestRingEvictionKeepsAggregates(t *testing.T) {
	c := New(4)
	v := int64(0)
	c.Probe("x", func() int64 { return v })
	for i := int64(0); i < 10; i++ {
		v = i
		c.Sample(i)
	}
	pts, _ := c.Series("x")
	if len(pts) != 4 {
		t.Fatalf("ring kept %d points, want 4", len(pts))
	}
	// Oldest first: the last 4 samples are 6..9.
	for i, pt := range pts {
		if want := int64(6 + i); pt.TS != want || pt.Val != want {
			t.Fatalf("point %d = %v, want ts=val=%d", i, pt, want)
		}
	}
	sum := c.Summary()[0]
	// Aggregates cover evicted points too.
	if sum.Count != 10 || sum.First != 0 || sum.Min != 0 || sum.Max != 9 || sum.Points != 4 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestMaybeSampleWindow(t *testing.T) {
	c := New(16)
	n := 0
	c.Probe("x", func() int64 { n++; return int64(n) })
	c.SetWindow(10)
	for ts := int64(0); ts < 100; ts++ {
		c.MaybeSample(ts)
	}
	// Samples at 0, 10, 20, ..., 90.
	if got := c.Samples(); got != 10 {
		t.Fatalf("window sampling took %d samples, want 10", got)
	}
	pts, _ := c.Series("x")
	if pts[0].TS != 0 || pts[1].TS != 10 {
		t.Fatalf("window sample timestamps %v", pts[:2])
	}
}

func TestProbeReplacementKeepsPoints(t *testing.T) {
	c := New(8)
	c.Probe("x", func() int64 { return 1 })
	c.Sample(0)
	c.Probe("x", func() int64 { return 2 })
	c.Sample(1)
	pts, _ := c.Series("x")
	if len(pts) != 2 || pts[0].Val != 1 || pts[1].Val != 2 {
		t.Fatalf("replacement lost points: %v", pts)
	}
	if c.Len() != 1 {
		t.Fatalf("replacement duplicated the series: %d", c.Len())
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	mk := func() string {
		c := New(8)
		c.Probe("zz", func() int64 { return 3 })
		c.Probe("aa", func() int64 { return 1 })
		c.Probe("mm", func() int64 { return 2 })
		c.Sample(5)
		c.Sample(6)
		return c.Snapshot()
	}
	s1, s2 := mk(), mk()
	if s1 != s2 {
		t.Fatalf("snapshots differ:\n%s\n%s", s1, s2)
	}
	want := "series aa n=2 first=1 last=1 min=1 max=1\n" +
		"series mm n=2 first=2 last=2 min=2 max=2\n" +
		"series zz n=2 first=3 last=3 min=3 max=3\n"
	if s1 != want {
		t.Fatalf("snapshot:\n%s\nwant:\n%s", s1, want)
	}
}

func TestWriteJSONShape(t *testing.T) {
	c := New(8)
	reg := obs.NewRegistry()
	ctr := reg.Counter("hits")
	ctr.Add(7)
	c.ProbeCounter("hits", ctr)
	g := reg.Gauge("depth")
	g.Set(3)
	c.ProbeGauge("depth", g)
	c.Sample(100)
	ctr.Add(1)
	c.Sample(200)

	var b bytes.Buffer
	if err := c.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Series []struct {
			Name   string     `json:"name"`
			Points [][2]int64 `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.Series) != 2 || doc.Series[0].Name != "depth" || doc.Series[1].Name != "hits" {
		t.Fatalf("series %+v", doc.Series)
	}
	hits := doc.Series[1].Points
	if len(hits) != 2 || hits[0] != [2]int64{100, 7} || hits[1] != [2]int64{200, 8} {
		t.Fatalf("hits points %v", hits)
	}
}

// TestLiveHeapBytes: after a collection the live-heap probe reads the
// runtime's settled figure, which is never zero in a running program.
func TestLiveHeapBytes(t *testing.T) {
	goruntime.GC()
	if got := LiveHeapBytes(); got <= 0 {
		t.Fatalf("LiveHeapBytes() = %d after a GC, want > 0", got)
	}
}

func TestStartStopWallClock(t *testing.T) {
	c := New(32)
	c.ProbeProcess()
	stop := c.Start(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	stop()
	stop() // idempotent
	if c.Samples() == 0 {
		t.Fatalf("wall-clock sampling took no samples")
	}
	pts, ok := c.Series("process.goroutines")
	if !ok || len(pts) == 0 {
		t.Fatalf("no goroutine series: ok=%v", ok)
	}
	if pts[len(pts)-1].Val < 1 {
		t.Fatalf("goroutine count %d", pts[len(pts)-1].Val)
	}
	after := c.Samples()
	time.Sleep(5 * time.Millisecond)
	if c.Samples() != after {
		t.Fatalf("collector kept sampling after stop")
	}
}

func TestRSSBytes(t *testing.T) {
	// On Linux this must be positive; elsewhere the documented fallback is 0.
	rss := RSSBytes()
	if rss < 0 {
		t.Fatalf("RSSBytes = %d", rss)
	}
}
