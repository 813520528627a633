package sched

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs"
	"logpopt/internal/schedule"
)

// Outcome labels how the cache answered one request.
type Outcome string

// Cache outcomes, as reported in response envelopes and /debug/cache.
const (
	// Miss: this request ran the solver.
	Miss Outcome = "miss"
	// Hit: the answer was already cached.
	Hit Outcome = "hit"
	// Coalesced: another request was already computing the same key; this
	// one waited for it instead of solving again.
	Coalesced Outcome = "coalesced"
)

// Result is one cached answer: the schedule's serialized JSON (the exact
// bytes schedule.WriteJSON emits, so /v1/schedule?format=schedule is
// byte-identical to `logpsched -render json`), what the envelope reports
// about it, and the outcome metadata. The schedule itself is not kept: the
// JSON is all an entry holds, so the byte budget charges what it pins, and
// /v1/explain recompiles.
type Result struct {
	Key         Key
	JSON        []byte
	Bound       logp.Time // the op's closed-form lower bound; -1 when none is known
	Baseline    bool      // Compiled.Baseline: the bound is the optimal tree's
	Events      int
	Finish      logp.Time
	SolveMicros int64
}

// entry is one cache slot. Until ready is closed the entry is in flight:
// later requests for the key block on ready instead of solving (the
// singleflight). In-flight entries are absent from the LRU list, charge no
// bytes and are never evicted.
type entry struct {
	key   Key
	ready chan struct{}
	res   *Result
	err   error
	elem  *list.Element // LRU position once ready; nil while in flight
	bytes int64
}

// ShardStats is the cache's counters: the totals row of /debug/cache.
// perfbench decodes that row into this type, so it keeps its name.
type ShardStats struct {
	Size      int   `json:"size"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
}

// Cache is the memory-bounded schedule cache: one lock over one map of
// entries and one LRU list of the ready ones, newest at the front. A key is
// solved outside the lock, exactly once however many requests race for it.
// When an insert pushes the charged bytes past the budget, the entries at
// the back of the list are dropped, under the insert's lock, until the
// total fits.
type Cache struct {
	maxBytes int64 // budget for the whole cache; 0 = unbounded

	mu      sync.Mutex
	entries map[Key]*entry // ready and in flight
	lru     list.List      // of *entry, ready only
	stats   ShardStats     // Size is len(entries) and is filled in by Stats

	// Registry mirrors of the counters, so /metrics sees cache behavior
	// without taking the lock.
	mHits, mMisses, mCoalesced, mEvictions, mSolveErrors *obs.Counter
	mBytes, mEntries                                     *obs.Gauge
	hSolve                                               *obs.Histogram
}

// NewCache builds a cache holding at most maxBytes of serialized schedules
// (0 = unbounded). An answer larger than maxBytes on its own is served but
// never cached. reg receives the mirrored servd.cache.* metrics; nil uses
// obs.Default.
func NewCache(maxBytes int64, reg *obs.Registry) *Cache {
	if reg == nil {
		reg = obs.Default
	}
	return &Cache{
		maxBytes:     maxBytes,
		entries:      make(map[Key]*entry),
		mHits:        reg.Counter("servd.cache.hits"),
		mMisses:      reg.Counter("servd.cache.misses"),
		mCoalesced:   reg.Counter("servd.cache.coalesced"),
		mEvictions:   reg.Counter("servd.cache.evictions"),
		mSolveErrors: reg.Counter("servd.cache.solve.errors"),
		mBytes:       reg.Gauge("servd.cache.bytes"),
		mEntries:     reg.Gauge("servd.cache.entries"),
		hSolve:       reg.Histogram("servd.cache.solve.us"),
	}
}

// SolvePanic is the error a waiter gets when the solve for its key
// panicked: the fault is the server's, not the request's.
type SolvePanic struct {
	Key   Key
	Value any // what the solve panicked with
}

func (e *SolvePanic) Error() string {
	return fmt.Sprintf("solving %s panicked: %v", e.Key, e.Value)
}

// Get answers k, computing it with solve (exactly once per key however many
// requests race) and caching the result. The returned Outcome says whether
// this request hit, missed (and solved), or coalesced onto another
// request's solve. Failed solves are not cached: every waiter gets the
// error, and the next request retries. Neither is an answer larger than the
// whole budget: this request and its waiters get it, and the slot is
// dropped without evicting anything else.
func (c *Cache) Get(k Key) (*Result, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		select {
		case <-e.ready:
			// Ready: a plain hit. Failed and oversized solves leave the map
			// before ready closes, so a ready entry holds a result.
			c.stats.Hits++
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			c.mHits.Inc()
			return e.res, Hit, nil
		default:
			// In flight: coalesce onto the solver already running.
			c.stats.Coalesced++
			c.mu.Unlock()
			c.mCoalesced.Inc()
			<-e.ready
			return e.res, Coalesced, e.err
		}
	}
	e := &entry{key: k, ready: make(chan struct{})}
	c.entries[k] = e
	c.stats.Misses++
	c.mu.Unlock()
	c.mMisses.Inc()

	res, err := c.fill(k)
	e.res, e.err = res, err
	if err == nil {
		e.bytes = int64(len(res.JSON)) + 64
	}
	c.mu.Lock()
	if err == nil && (c.maxBytes <= 0 || e.bytes <= c.maxBytes) {
		e.elem = c.lru.PushFront(e)
		c.stats.Bytes += e.bytes
		c.evict()
	} else {
		// Drop the slot so the next request retries (or re-solves the
		// oversized answer).
		delete(c.entries, k)
	}
	c.mEntries.Set(int64(len(c.entries)))
	c.mBytes.Set(c.stats.Bytes)
	c.mu.Unlock()
	close(e.ready)
	if err != nil {
		c.mSolveErrors.Inc()
	}
	return res, Miss, err
}

// evict drops entries from the back of the LRU list, least recently used
// first, until the charged bytes fit the budget. The front entry, the one
// its caller just inserted, is never dropped. Caller holds c.mu.
func (c *Cache) evict() {
	for c.maxBytes > 0 && c.stats.Bytes > c.maxBytes && c.lru.Len() > 1 {
		v := c.lru.Remove(c.lru.Back()).(*entry)
		delete(c.entries, v.key)
		c.stats.Bytes -= v.bytes
		c.stats.Evictions++
		c.mEvictions.Inc()
	}
}

// fill runs solve for the request leading k's slot, turning a panic into a
// *SolvePanic, so that Get releases the slot and its waiters as it does for
// any failed solve instead of leaving the key in flight for good.
func (c *Cache) fill(k Key) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &SolvePanic{Key: k, Value: v}
		}
	}()
	return c.solve(k)
}

// solve answers the key and serializes it once. Broadcast, reduce, scan and
// binomial stream from the counting tables (Stream); every other op is
// compiled and its events encoded. Either way AppendSeqJSON sizes the bytes
// exactly, so the entry's footprint is the len(JSON) the byte budget
// charges, with no spare capacity.
func (c *Cache) solve(k Key) (*Result, error) {
	start := time.Now()
	m := k.Machine()
	res := &Result{Key: k}
	seq, bound, ok := Stream(m, k.Op)
	if ok {
		res.Bound, res.Baseline = bound, BaselineOp(k.Op)
	} else {
		comp, err := Compile(m, k.Op, k.K, k.Deadline, logtime.Tree)
		if err != nil {
			return nil, err
		}
		m, seq = comp.S.M, comp.S.Seq()
		res.Bound, res.Baseline = comp.Bound, comp.Baseline
	}
	var sum schedule.Summary
	res.JSON, sum = schedule.AppendSeqJSON(nil, m, seq)
	res.Events, res.Finish = sum.Events, sum.Makespan
	res.SolveMicros = time.Since(start).Microseconds()
	c.hSolve.Observe(res.SolveMicros)
	return res, nil
}

// Stats snapshots the cache's counters for /debug/cache.
func (c *Cache) Stats() ShardStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Size = len(c.entries)
	return st
}
