// Package timeseries is the time-resolved arm of the observability layer: a
// ring-buffer collector that samples a set of named probes — counter values,
// gauge readings, engine state, process RSS — on a wall-clock interval or a
// simulated-time window, keeping the last N samples per series in a fixed
// ring so memory stays bounded however long the run.
//
// The overhead discipline matches obs: every method is a no-op on a nil
// *Collector, so engines thread a collector through unconditionally and pay
// one pointer check per tick when collection is off. Sampling itself is
// amortized — MaybeSample returns without touching the mutex until the
// configured window has elapsed — and probes are read under a single lock
// acquisition per sample, not per series.
//
// Determinism: Snapshot renders every series sorted by name with its point
// count and running aggregates, mirroring Registry.Snapshot's
// sorted-by-kind-then-name text form, so tests can diff snapshots directly.
// WriteJSON emits series in the same sorted order.
package timeseries

import (
	"bytes"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"

	"logpopt/internal/obs"
)

// DefaultCapacity is the per-series ring size used when New is given a
// non-positive one: enough points for a useful sparkline, small enough that
// dozens of series cost well under a megabyte.
const DefaultCapacity = 512

// Point is one sample of one series.
type Point struct {
	TS  int64 // timestamp: wall microseconds or simulated cycles
	Val int64
}

// series is one probe plus its ring of samples and running aggregates. The
// aggregates cover every sample ever taken, including points the ring has
// already evicted, so Summary stays faithful on long runs.
type series struct {
	name string
	fn   func() int64

	ring       []Point // capacity cap(ring); len grows to cap then wraps
	head       int     // index of the oldest point once the ring is full
	count      int64   // total samples taken
	first, min int64
	max, last  int64
}

func (s *series) record(ts, v int64) {
	if s.count == 0 {
		s.first, s.min, s.max = v, v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.last = v
	s.count++
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, Point{TS: ts, Val: v})
		return
	}
	s.ring[s.head] = Point{TS: ts, Val: v}
	s.head = (s.head + 1) % len(s.ring)
}

// points returns the retained window oldest-first.
func (s *series) points() []Point {
	out := make([]Point, 0, len(s.ring))
	for i := 0; i < len(s.ring); i++ {
		out = append(out, s.ring[(s.head+i)%len(s.ring)])
	}
	return out
}

// Collector samples registered probes into per-series rings. All methods are
// safe for concurrent use and nil-safe. Create one with New.
type Collector struct {
	mu     sync.Mutex
	cap    int
	byName map[string]*series
	names  []string // sorted lazily; nil when dirty
	window int64    // MaybeSample threshold, in timestamp units
	lastTS int64    // timestamp of the last sample taken
	taken  bool     // whether any sample has been taken
	stop   chan struct{}
}

// New returns a collector whose series each retain the last capacity points
// (<= 0 selects DefaultCapacity).
func New(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{cap: capacity, byName: map[string]*series{}}
}

// SetWindow sets the minimum timestamp distance between samples taken by
// MaybeSample (<= 0 means every call samples). Timestamps are whatever unit
// the caller passes — cycles for engines, microseconds for wall clocks.
func (c *Collector) SetWindow(w int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.window = w
	c.mu.Unlock()
}

// Probe registers fn as the source of the named series, replacing the
// function but keeping the recorded points if the name exists. Probes are
// called with the collector's lock held, from whichever goroutine samples —
// engine probes that read unsynchronized engine state are safe exactly when
// the engine itself calls Sample/MaybeSample (the reads then happen on the
// engine's own goroutine).
func (c *Collector) Probe(name string, fn func() int64) {
	if c == nil || fn == nil {
		return
	}
	c.mu.Lock()
	if s := c.byName[name]; s != nil {
		s.fn = fn
	} else {
		c.byName[name] = &series{name: name, fn: fn, ring: make([]Point, 0, c.cap)}
		c.names = nil
	}
	c.mu.Unlock()
}

// ProbeCounter registers the counter's current value as the named series.
func (c *Collector) ProbeCounter(name string, ctr *obs.Counter) {
	c.Probe(name, ctr.Value)
}

// ProbeGauge registers the gauge's last-set value as the named series.
func (c *Collector) ProbeGauge(name string, g *obs.Gauge) {
	c.Probe(name, g.Value)
}

// sorted returns the series names in sorted order. Caller holds c.mu.
func (c *Collector) sorted() []string {
	if c.names == nil {
		for n := range c.byName {
			c.names = append(c.names, n)
		}
		sort.Strings(c.names)
	}
	return c.names
}

// Sample reads every probe once and appends one point per series at
// timestamp ts.
func (c *Collector) Sample(ts int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.sampleLocked(ts)
	c.mu.Unlock()
}

func (c *Collector) sampleLocked(ts int64) {
	c.lastTS, c.taken = ts, true
	for _, n := range c.sorted() {
		s := c.byName[n]
		s.record(ts, s.fn())
	}
}

// MaybeSample samples only when at least the configured window has elapsed
// since the last sample (always, with no window set). Engines call it once
// per tick; the common no-op path is one mutex acquisition.
func (c *Collector) MaybeSample(ts int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.taken && c.window > 0 && ts-c.lastTS < c.window {
		c.mu.Unlock()
		return
	}
	c.sampleLocked(ts)
	c.mu.Unlock()
}

// Start begins wall-clock sampling every interval (timestamps are
// microseconds since Start) in a background goroutine and returns a stop
// function, which takes one final sample so short runs never end empty.
// Stop is idempotent; Start on a nil collector returns a no-op stop.
func (c *Collector) Start(interval time.Duration) (stop func()) {
	if c == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	start := time.Now()
	ch := make(chan struct{})
	done := make(chan struct{})
	c.mu.Lock()
	c.stop = ch
	c.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ch:
				return
			case <-tick.C:
				// When a tick and the stop signal are both ready, select
				// picks arbitrarily; re-check stop so a closed channel
				// always wins and no tick samples after it.
				select {
				case <-ch:
					return
				default:
				}
				c.Sample(time.Since(start).Microseconds())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(ch)
			// Wait for the sampler goroutine to exit so the final sample
			// below is truly final: once stop returns, Samples() is stable.
			<-done
			c.Sample(time.Since(start).Microseconds())
		})
	}
}

// Len returns the number of registered series.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byName)
}

// Samples returns the number of samples taken (the max over series; series
// registered mid-run have fewer).
func (c *Collector) Samples() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var mx int64
	for _, s := range c.byName {
		if s.count > mx {
			mx = s.count
		}
	}
	return mx
}

// Series returns the retained points of one series, oldest first, and
// whether the series exists.
func (c *Collector) Series(name string) ([]Point, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.byName[name]
	if s == nil {
		return nil, false
	}
	return s.points(), true
}

// SeriesSummary is the running aggregate of one series over every sample
// ever taken (not just the retained ring window).
type SeriesSummary struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	First  int64  `json:"first"`
	Last   int64  `json:"last"`
	Min    int64  `json:"min"`
	Max    int64  `json:"max"`
	Points int    `json:"points"` // retained in the ring
}

// Summary returns one SeriesSummary per series, sorted by name. Series with
// no samples yet are included with zero aggregates.
func (c *Collector) Summary() []SeriesSummary {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SeriesSummary, 0, len(c.byName))
	for _, n := range c.sorted() {
		s := c.byName[n]
		out = append(out, SeriesSummary{
			Name: n, Count: s.count, First: s.first, Last: s.last,
			Min: s.min, Max: s.max, Points: len(s.ring),
		})
	}
	return out
}

// Snapshot renders every series as one line, sorted by name — deterministic
// for a given sequence of samples, mirroring Registry.Snapshot:
//
//	series <name> n=<count> first=<v> last=<v> min=<v> max=<v>
func (c *Collector) Snapshot() string {
	var b bytes.Buffer
	for _, s := range c.Summary() {
		fmt.Fprintf(&b, "series %s n=%d first=%d last=%d min=%d max=%d\n",
			s.Name, s.Count, s.First, s.Last, s.Min, s.Max)
	}
	return b.String()
}

// WriteJSON emits the retained window of every series as one JSON document,
// series sorted by name, points oldest first:
//
//	{"series":[{"name":"...","points":[[ts,val],...]},...]}
//
// The encoding is hand-rolled like the tracer's so output is deterministic
// and dependency-free. A nil collector writes an empty document.
func (c *Collector) WriteJSON(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString(`{"series":[`)
	if c != nil {
		c.mu.Lock()
		for i, n := range c.sorted() {
			if i > 0 {
				b.WriteByte(',')
			}
			s := c.byName[n]
			b.WriteString("\n{\"name\":")
			b.WriteString(strconv.Quote(n))
			b.WriteString(`,"points":[`)
			for j, pt := range s.points() {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteByte('[')
				b.WriteString(strconv.FormatInt(pt.TS, 10))
				b.WriteByte(',')
				b.WriteString(strconv.FormatInt(pt.Val, 10))
				b.WriteByte(']')
			}
			b.WriteString(`]}`)
		}
		c.mu.Unlock()
	}
	b.WriteString("\n]}\n")
	_, err := w.Write(b.Bytes())
	return err
}

// RSSBytes reads the process's current resident set size from
// /proc/self/statm (Linux). It returns 0 where the file is absent or
// unreadable, so probes built on it degrade to a flat zero series rather
// than failing.
func RSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	// statm: size resident shared ... in pages; field 2 is the RSS.
	i := 0
	for i < len(data) && data[i] != ' ' {
		i++
	}
	var pages int64
	for i++; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
		pages = pages*10 + int64(data[i]-'0')
	}
	return pages * int64(os.Getpagesize())
}

// LiveHeapBytes reads the heap the last garbage collection found live
// (runtime/metrics /gc/heap/live:bytes): the settled figure that RSS and
// the heap goal grow from, free of the garbage awaiting the next cycle.
func LiveHeapBytes() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// ProbeProcess registers the standard process-level series: resident set
// size and live heap (bytes) and live goroutine count.
func (c *Collector) ProbeProcess() {
	c.Probe("process.rss.bytes", RSSBytes)
	c.Probe("process.heap.live.bytes", LiveHeapBytes)
	c.Probe("process.goroutines", func() int64 { return int64(goruntime.NumGoroutine()) })
}
