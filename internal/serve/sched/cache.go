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
// singleflight). In-flight entries are absent from the LRU list and are
// never evicted.
type entry struct {
	ready chan struct{}
	res   *Result
	err   error
	elem  *list.Element // LRU position once ready; nil while in flight
	bytes int64
}

// shard is one lock domain of the cache: a map of entries plus an LRU list
// of the ready ones, newest at the front.
type shard struct {
	mu        sync.Mutex
	entries   map[Key]*entry
	lru       list.List // of Key
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

// Cache is the sharded, memory-bounded schedule cache. Each shard holds its
// own lock, entry map, and LRU list; a key's shard is fixed by its canonical
// hash, so a thundering herd on one key contends on exactly one shard and
// computes the answer exactly once.
type Cache struct {
	shards   []*shard
	maxBytes int64 // total budget, split evenly across shards; 0 = unbounded

	// Registry mirrors of the per-shard counters, so /metrics sees cache
	// behavior without /debug/cache's lock sweep.
	mHits, mMisses, mCoalesced, mEvictions, mSolveErrors *obs.Counter
	mBytes, mEntries                                     *obs.Gauge
	hSolve                                               *obs.Histogram
}

// NewCache builds a cache with n shards (n < 1 means 1) holding at most
// maxBytes of serialized schedules in total (0 = unbounded). reg receives
// the mirrored servd.cache.* metrics; nil uses obs.Default.
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
// error, and the next request retries.
func (c *Cache) Get(k Key) (*Result, Outcome, error) {
	sh := c.shards[k.Shard(len(c.shards))]
	sh.mu.Lock()
	if e, ok := sh.entries[k]; ok {
		select {
		case <-e.ready:
			// Ready: a plain hit.
			sh.hits++
			sh.lru.MoveToFront(e.elem)
			sh.mu.Unlock()
			c.mHits.Inc()
			if e.err != nil {
				return nil, Hit, e.err
			}
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
	e := &entry{ready: make(chan struct{})}
	sh.entries[k] = e
	sh.misses++
	sh.mu.Unlock()
	c.mMisses.Inc()

	res, err := c.fill(k)
	sh.mu.Lock()
	if err != nil {
		// Do not cache failures: drop the slot so the next request retries,
		// then wake the coalesced waiters with the error.
		delete(sh.entries, k)
		e.err = err
		sh.mu.Unlock()
		c.mSolveErrors.Inc()
		close(e.ready)
		return nil, Miss, err
	}
	e.res = res
	e.bytes = int64(len(res.JSON)) + 64
	e.elem = sh.lru.PushFront(k)
	sh.bytes += e.bytes
	c.evictLocked(sh)
	sh.mu.Unlock()
	close(e.ready)
	c.publishGauges()
	return res, Miss, nil
}

// evictLocked drops least-recently-used ready entries until the shard fits
// its slice of the byte budget. Caller holds sh.mu. In-flight entries are
// not in the LRU list and therefore survive; the entry being inserted is at
// the front and is only dropped if it alone exceeds the whole budget.
func (c *Cache) evictLocked(sh *shard) {
	if c.maxBytes <= 0 {
		return
	}
	budget := c.maxBytes / int64(len(c.shards))
	for sh.bytes > budget && sh.lru.Len() > 1 {
		back := sh.lru.Back()
		k := back.Value.(Key)
		e := sh.entries[k]
		sh.lru.Remove(back)
		delete(sh.entries, k)
		sh.bytes -= e.bytes
		sh.evictions++
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

// solve answers the key and serializes it once. Broadcast, reduce and scan
// stream from the counting tables (Stream); every other op is compiled and
// its events encoded. Either way AppendSeqJSON sizes the bytes exactly, so
// the entry's footprint is the len(JSON) the byte budget charges, with no
// spare capacity.
func (c *Cache) solve(k Key) (*Result, error) {
	start := time.Now()
	m := k.Machine()
	res := &Result{Key: k}
	seq, bound, ok := Stream(m, k.Op)
	if ok {
		res.Bound = bound
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
	var size int
	var bts int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		size += len(sh.entries)
		bts += sh.bytes
		sh.mu.Unlock()
	}
	c.mEntries.Set(int64(size))
	c.mBytes.Set(bts)
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
