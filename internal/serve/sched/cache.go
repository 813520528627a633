package sched

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
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
	stamp uint64 // cache-wide recency: the clock at insert or at the last hit
}

// shard is one lock domain of the cache: a map of entries plus an LRU list
// of the ready ones, newest at the front. Stamps are taken under the shard's
// lock as entries move to the front, so they fall from front to back and the
// back is the shard's oldest entry.
type shard struct {
	mu        sync.Mutex
	entries   map[Key]*entry
	lru       list.List // of *entry
	bytes     int64
	hits      int64
	misses    int64
	coalesced int64
	evictions int64
}

// ShardStats is one shard's row of /debug/cache.
type ShardStats struct {
	Size      int   `json:"size"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
}

// Add folds o into s (for the /debug/cache totals row).
func (s *ShardStats) Add(o ShardStats) {
	s.Size += o.Size
	s.Bytes += o.Bytes
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Coalesced += o.Coalesced
	s.Evictions += o.Evictions
}

// Cache is the sharded, memory-bounded schedule cache. Shards are lock
// domains: each holds its own lock, entry map and LRU list, and a key's
// shard is fixed by its canonical hash, so a hit takes one shard's lock and
// a thundering herd on one key contends on exactly one shard and computes
// the answer exactly once. The byte budget is one budget for the whole
// cache: when an insert pushes the total past it, evict drops the
// least-recently-used entry of any shard, by a cache-wide recency stamp,
// until the total fits.
type Cache struct {
	shards   []*shard
	maxBytes int64 // budget for the whole cache; 0 = unbounded

	clock   atomic.Uint64 // source of recency stamps
	bytes   atomic.Int64  // bytes charged by ready entries, all shards
	size    atomic.Int64  // slots, ready and in flight, all shards
	evictMu sync.Mutex    // one evictor at a time; taken before, never under, a shard lock

	// Registry mirrors of the per-shard counters, so /metrics sees cache
	// behavior without /debug/cache's lock sweep.
	mHits, mMisses, mCoalesced, mEvictions, mSolveErrors *obs.Counter
	mBytes, mEntries                                     *obs.Gauge
	hSolve                                               *obs.Histogram
}

// NewCache builds a cache with n shards (n < 1 means 1) holding at most
// maxBytes of serialized schedules across all shards (0 = unbounded). An
// answer larger than maxBytes on its own is served but never cached. reg
// receives the mirrored servd.cache.* metrics; nil uses obs.Default.
func NewCache(n int, maxBytes int64, reg *obs.Registry) *Cache {
	if n < 1 {
		n = 1
	}
	if reg == nil {
		reg = obs.Default
	}
	c := &Cache{
		shards:       make([]*shard, n),
		maxBytes:     maxBytes,
		mHits:        reg.Counter("servd.cache.hits"),
		mMisses:      reg.Counter("servd.cache.misses"),
		mCoalesced:   reg.Counter("servd.cache.coalesced"),
		mEvictions:   reg.Counter("servd.cache.evictions"),
		mSolveErrors: reg.Counter("servd.cache.solve.errors"),
		mBytes:       reg.Gauge("servd.cache.bytes"),
		mEntries:     reg.Gauge("servd.cache.entries"),
		hSolve:       reg.Histogram("servd.cache.solve.us"),
	}
	for i := range c.shards {
		c.shards[i] = &shard{entries: make(map[Key]*entry)}
	}
	return c
}

// Shards returns the shard count.
func (c *Cache) Shards() int { return len(c.shards) }

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
	sh := c.shards[k.Shard(len(c.shards))]
	sh.mu.Lock()
	if e, ok := sh.entries[k]; ok {
		select {
		case <-e.ready:
			// Ready: a plain hit. Failed and oversized solves leave the map
			// before ready closes, so a ready entry holds a result.
			sh.hits++
			e.stamp = c.clock.Add(1)
			sh.lru.MoveToFront(e.elem)
			sh.mu.Unlock()
			c.mHits.Inc()
			return e.res, Hit, nil
		default:
			// In flight: coalesce onto the solver already running.
			sh.coalesced++
			sh.mu.Unlock()
			c.mCoalesced.Inc()
			<-e.ready
			if e.err != nil {
				return nil, Coalesced, e.err
			}
			return e.res, Coalesced, nil
		}
	}
	e := &entry{key: k, ready: make(chan struct{})}
	sh.entries[k] = e
	sh.misses++
	sh.mu.Unlock()
	c.size.Add(1)
	c.mMisses.Inc()

	res, err := c.fill(k)
	charge := int64(0)
	if err == nil {
		charge = int64(len(res.JSON)) + 64
	}
	cached := err == nil && (c.maxBytes <= 0 || charge <= c.maxBytes)
	sh.mu.Lock()
	if cached {
		e.res, e.bytes = res, charge
		e.stamp = c.clock.Add(1)
		e.elem = sh.lru.PushFront(e)
		sh.bytes += charge
		c.bytes.Add(charge)
	} else {
		// Drop the slot so the next request retries (or re-solves the
		// oversized answer), then wake the coalesced waiters.
		delete(sh.entries, k)
		e.res, e.err = res, err
		c.size.Add(-1)
	}
	sh.mu.Unlock()
	close(e.ready)
	if cached {
		c.evict(e)
	}
	c.publishGauges()
	if err != nil {
		c.mSolveErrors.Inc()
		return nil, Miss, err
	}
	return res, Miss, nil
}

// evict drops least-recently-used ready entries, across all shards, until
// the cache's charged bytes fit its budget; keep (the entry its caller just
// inserted) is never dropped. Each round scans the shards for the one whose
// oldest entry has the oldest stamp, then rechecks that entry under the
// shard's lock before dropping it: a hit in between restamps it, and the
// round scans again. Lock order is evictMu, then one shard lock at a time;
// the caller holds no shard lock. In-flight entries are not in the LRU
// lists and therefore survive.
func (c *Cache) evict(keep *entry) {
	if c.maxBytes <= 0 || c.bytes.Load() <= c.maxBytes {
		return
	}
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	for c.bytes.Load() > c.maxBytes {
		var victim *shard
		var oldest uint64
		for _, sh := range c.shards {
			sh.mu.Lock()
			if v := sh.oldest(keep); v != nil && (victim == nil || v.stamp < oldest) {
				victim, oldest = sh, v.stamp
			}
			sh.mu.Unlock()
		}
		if victim == nil {
			return // nothing but keep is droppable
		}
		victim.mu.Lock()
		if v := victim.oldest(keep); v != nil && v.stamp == oldest {
			victim.lru.Remove(v.elem)
			delete(victim.entries, v.key)
			victim.bytes -= v.bytes
			victim.evictions++
			c.bytes.Add(-v.bytes)
			c.size.Add(-1)
			c.mEvictions.Inc()
		}
		victim.mu.Unlock()
	}
}

// oldest returns the shard's least-recently-used ready entry other than
// keep, or nil. Caller holds sh.mu.
func (sh *shard) oldest(keep *entry) *entry {
	el := sh.lru.Back()
	if el != nil && el.Value.(*entry) == keep {
		el = el.Prev()
	}
	if el == nil {
		return nil
	}
	return el.Value.(*entry)
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

// publishGauges refreshes the registry's view of cache occupancy.
func (c *Cache) publishGauges() {
	c.mEntries.Set(c.size.Load())
	c.mBytes.Set(c.bytes.Load())
}

// Stats snapshots every shard for /debug/cache.
func (c *Cache) Stats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	for i, sh := range c.shards {
		sh.mu.Lock()
		out[i] = ShardStats{
			Size:      len(sh.entries),
			Bytes:     sh.bytes,
			Hits:      sh.hits,
			Misses:    sh.misses,
			Coalesced: sh.coalesced,
			Evictions: sh.evictions,
		}
		sh.mu.Unlock()
	}
	return out
}
