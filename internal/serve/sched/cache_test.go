package sched

import (
	"bytes"
	"cmp"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"logpopt/internal/logtime"
	"logpopt/internal/obs"
)

func testKey(t *testing.T, req Request) Key {
	t.Helper()
	k, err := Canonicalize(req, "")
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCacheCoalescing is the tentpole guarantee: N concurrent identical cold
// requests run the solver exactly once — one miss, N-1 coalesced (or, for
// stragglers arriving after the solve finished, hits).
func TestCacheCoalescing(t *testing.T) {
	const n = 32
	reg := obs.NewRegistry()
	c := NewCache(0, reg)
	k := testKey(t, Request{Op: "broadcast", P: 512, L: 6, O: 2, G: 4, K: 1})

	// Gate every goroutine on a barrier so the requests are genuinely
	// concurrent, then count the outcomes.
	var (
		start   = make(chan struct{})
		wg      sync.WaitGroup
		mu      sync.Mutex
		byKind  = map[Outcome]int{}
		results = map[string]int{}
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, out, err := c.Get(k)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			mu.Lock()
			byKind[out]++
			results[string(res.JSON)]++
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	if byKind[Miss] != 1 {
		t.Fatalf("misses = %d, want exactly 1 (outcomes: %v)", byKind[Miss], byKind)
	}
	if byKind[Miss]+byKind[Hit]+byKind[Coalesced] != n {
		t.Fatalf("outcomes don't sum to %d: %v", n, byKind)
	}
	if len(results) != 1 {
		t.Fatalf("%d distinct JSON payloads for one key, want 1", len(results))
	}

	total := c.Stats()
	if total.Misses != 1 {
		t.Fatalf("cache stats misses = %d, want 1", total.Misses)
	}
	if total.Hits+total.Coalesced != n-1 {
		t.Fatalf("hits+coalesced = %d, want %d", total.Hits+total.Coalesced, n-1)
	}
	if got := reg.Counter("servd.cache.misses").Value(); got != 1 {
		t.Fatalf("registry misses = %d, want 1", got)
	}
}

func TestCacheHitServesSameBytes(t *testing.T) {
	c := NewCache(0, obs.NewRegistry())
	k := testKey(t, Request{Op: "broadcast", P: 8, L: 6, O: 2, G: 4, K: 1})
	first, out, err := c.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if out != Miss {
		t.Fatalf("first Get outcome = %q, want miss", out)
	}
	second, out, err := c.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if out != Hit {
		t.Fatalf("second Get outcome = %q, want hit", out)
	}
	if !bytes.Equal(first.JSON, second.JSON) {
		t.Fatal("hit returned different bytes than the miss")
	}
	if second.Finish != first.Finish {
		t.Fatalf("finish changed across hit: %d vs %d", second.Finish, first.Finish)
	}
}

// TestCacheEntriesExactSize: a cached body holds no spare capacity, so the
// byte budget (len(JSON)+64 per entry) charges what the entry really pins,
// and the body is exactly what WriteJSON streams for the compiled schedule.
func TestCacheEntriesExactSize(t *testing.T) {
	c := NewCache(0, obs.NewRegistry())
	var charged int64
	for _, op := range []string{"broadcast", "reduce", "scan", "binomial"} {
		for _, p := range []int{1, 300, 3000} {
			k := testKey(t, Request{Op: op, P: p, L: 6, O: 2, G: 4, K: 1})
			res, _, err := c.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if cap(res.JSON) != len(res.JSON) {
				t.Errorf("%s P=%d: cached body cap %d, len %d", op, p, cap(res.JSON), len(res.JSON))
			}
			comp, err := Compile(k.Machine(), op, 1, 0, logtime.Tree)
			if err != nil {
				t.Fatal(err)
			}
			var w bytes.Buffer
			if err := comp.S.WriteJSON(&w); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.JSON, w.Bytes()) {
				t.Errorf("%s P=%d: cached body differs from WriteJSON", op, p)
			}
			if res.Events != len(comp.S.Events) || res.Finish != comp.S.Makespan() || res.Bound != comp.Bound || res.Baseline != comp.Baseline {
				t.Errorf("%s P=%d: cached events %d finish %d bound %d baseline %v, compiled %d %d %d %v", op, p,
					res.Events, res.Finish, res.Bound, res.Baseline, len(comp.S.Events), comp.S.Makespan(), comp.Bound, comp.Baseline)
			}
			charged += int64(len(res.JSON)) + 64
		}
	}
	if got := c.Stats().Bytes; got != charged {
		t.Fatalf("cache charges %d bytes, want %d", got, charged)
	}
}

// TestCachedResultHoldsOnlyJSON: a cached broadcast at P = 10⁵ pins its
// body and little else. Its 2(P-1) events alone would add ~9.6 MB to the
// ~11 MB body, so a live-heap growth under 1.25 × len(JSON) across the
// solve proves the entry retains no event slice.
func TestCachedResultHoldsOnlyJSON(t *testing.T) {
	c := NewCache(0, obs.NewRegistry())
	k := testKey(t, Request{Op: "broadcast", P: 100000, L: 6, O: 2, G: 4, K: 1})
	logtime.B(k.Machine(), k.P) // grow the shared counting tables outside the measurement
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, _, err := c.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := int64(len(res.JSON)) * 5 / 4; grew > limit {
		t.Fatalf("live heap grew %d bytes for a %d-byte body (limit %d): the entry holds more than its JSON",
			grew, len(res.JSON), limit)
	}
	runtime.KeepAlive(c)
}

// TestCacheEviction fills a tiny cache past its byte budget and checks LRU
// order: the oldest untouched entries go first and recently-used ones stay.
func TestCacheEviction(t *testing.T) {
	reg := obs.NewRegistry()
	// A budget that holds only a few small schedules.
	c := NewCache(2048, reg)
	keys := make([]Key, 0, 12)
	for p := 2; p < 14; p++ {
		keys = append(keys, testKey(t, Request{Op: "broadcast", P: p, L: 6, O: 2, G: 4, K: 1}))
	}
	for _, k := range keys {
		if _, _, err := c.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	total := c.Stats()
	if total.Evictions == 0 {
		t.Fatalf("no evictions after inserting %d entries into a 2 KiB cache (bytes=%d)", len(keys), total.Bytes)
	}
	if total.Bytes > 2048 {
		t.Fatalf("cache holds %d bytes, budget 2048", total.Bytes)
	}
	// The most recent key must have survived.
	if _, out, err := c.Get(keys[len(keys)-1]); err != nil || out != Hit {
		t.Fatalf("most recent key: outcome=%q err=%v, want hit", out, err)
	}
	// The oldest key was evicted, so refetching it is a miss.
	if _, out, err := c.Get(keys[0]); err != nil || out != Miss {
		t.Fatalf("oldest key: outcome=%q err=%v, want miss", out, err)
	}
}

// TestCacheErrorNotCached: a failed solve must not leave a poisoned entry —
// the next identical request retries (and fails again, freshly).
func TestCacheErrorNotCached(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(0, reg)
	// kitem with k=2, P=1 in the postal model: capacity C(L)=1 < k, so the
	// solver reports infeasibility.
	k := Key{Op: "kitem", P: 1, L: 1, O: 0, G: 1, K: 5}
	_, out, err := c.Get(k)
	if err == nil {
		t.Fatal("expected solve error")
	}
	if out != Miss {
		t.Fatalf("outcome = %q, want miss", out)
	}
	_, out, err = c.Get(k)
	if err == nil {
		t.Fatal("expected second solve error")
	}
	if out != Miss {
		t.Fatalf("second failed request outcome = %q, want miss (errors must not cache)", out)
	}
	total := c.Stats()
	if total.Size != 0 {
		t.Fatalf("cache holds %d entries after only failed solves, want 0", total.Size)
	}
	if got := reg.Counter("servd.cache.solve.errors").Value(); got != 2 {
		t.Fatalf("solve error counter = %d, want 2", got)
	}
}

// TestCacheConstructorRespected: every accepted constructor spelling names
// the one tree builder, so the second spelling is a cache hit on the first
// one's entry, not a second solve.
func TestCacheConstructorRespected(t *testing.T) {
	c := NewCache(0, obs.NewRegistry())
	ks := testKey(t, Request{Op: "broadcast", P: 600, L: 6, O: 2, G: 4, K: 1, Constructor: "search"})
	kl := testKey(t, Request{Op: "broadcast", P: 600, L: 6, O: 2, G: 4, K: 1, Constructor: "logtime"})
	if ks != kl {
		t.Fatalf("search and logtime canonicalized to %q and %q, want one key", ks, kl)
	}
	if _, out, err := c.Get(ks); err != nil || out != Miss {
		t.Fatalf("first spelling: outcome %v, err %v; want a miss", out, err)
	}
	if _, out, err := c.Get(kl); err != nil || out != Hit {
		t.Fatalf("second spelling: outcome %v, err %v; want a hit", out, err)
	}
}

func TestSolveErrorMentionsOp(t *testing.T) {
	c := NewCache(0, obs.NewRegistry())
	k := Key{Op: "nosuch", P: 4, L: 6, O: 2, G: 4}
	_, _, err := c.Get(k)
	if err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("err = %v, want unknown-op error", err)
	}
}

// TestSolvePanicAnswers500 drives a key whose solve panics — a summation
// whose deadline 2⁶³−1 overflows the capacity table — through a running
// server twice. Each request must get a prompt 500, the cache must keep no
// slot for the key and count both failed solves, and once the server closes
// no goroutine may be left parked on the key.
func TestSolvePanicAnswers500(t *testing.T) {
	a, reg := newTestAPI(t)
	base := runtime.NumGoroutine()
	srv := httptest.NewServer(a.Handler())
	client := &http.Client{Timeout: 5 * time.Second}
	url := srv.URL + "/v1/schedule?op=summation&p=4&l=6&o=2&g=4&t=9223372036854775807"
	for i := range 2 {
		start := time.Now()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "panicked") {
			t.Fatalf("request %d: status %d, body %q; want 500 naming the panic", i, resp.StatusCode, body)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("request %d took %v", i, d)
		}
	}
	total := a.cache.Stats()
	if total.Size != 0 || total.Misses != 2 {
		t.Fatalf("cache after two panicking solves: %+v, want no entry and 2 misses", total)
	}
	if got := reg.Counter("servd.cache.solve.errors").Value(); got != 2 {
		t.Fatalf("solve error counter = %d, want 2", got)
	}
	client.CloseIdleConnections()
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the server closed, %d before it started", n, base)
	}
}

// charged is what the cache charges for k's answer: its body plus the
// per-entry overhead.
func charged(t *testing.T, k Key) int64 {
	t.Helper()
	res, _, err := NewCache(0, obs.NewRegistry()).Get(k)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(res.JSON)) + 64
}

// wantOutcome fetches k and fails unless the cache answers with want.
func wantOutcome(t *testing.T, c *Cache, k Key, want Outcome) {
	t.Helper()
	if _, out, err := c.Get(k); err != nil || out != want {
		t.Fatalf("%v: outcome %q, err %v; want %q", k, out, err, want)
	}
}

// TestCacheOversizedServedNotCached: an answer larger than the whole budget
// reaches the request that solved it and every request coalesced onto it,
// but the cache keeps no slot for it and evicts nothing to make room.
func TestCacheOversizedServedNotCached(t *testing.T) {
	c := NewCache(2048, obs.NewRegistry())
	var small []Key
	for p := 2; p < 6; p++ {
		k := testKey(t, Request{Op: "broadcast", P: p, L: 6, O: 2, G: 4, K: 1})
		wantOutcome(t, c, k, Miss)
		small = append(small, k)
	}
	before := c.Stats()
	big := testKey(t, Request{Op: "broadcast", P: 3000, L: 6, O: 2, G: 4, K: 1})
	comp, err := Compile(big.Machine(), big.Op, 1, 0, logtime.Tree)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := comp.S.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, out, err := c.Get(big)
			if err != nil || out == Hit || !bytes.Equal(res.JSON, want.Bytes()) {
				t.Errorf("oversized key: outcome %q, err %v; want its body from a miss or a coalesced wait", out, err)
			}
		}()
	}
	wg.Wait()
	for _, k := range small {
		wantOutcome(t, c, k, Hit)
	}
	wantOutcome(t, c, big, Miss)
	after := c.Stats()
	if after.Size != len(small) || after.Bytes != before.Bytes || after.Evictions != 0 {
		t.Fatalf("cache after oversized answers: %+v, want the %d small entries (%d bytes) and no eviction",
			after, len(small), before.Bytes)
	}
}

// TestCacheBudgetIsCacheWide: two keys that together fill the budget
// exactly both stay.
func TestCacheBudgetIsCacheWide(t *testing.T) {
	first := testKey(t, Request{Op: "broadcast", P: 1000, L: 6, O: 2, G: 4, K: 1})
	second := testKey(t, Request{Op: "broadcast", P: 1001, L: 6, O: 2, G: 4, K: 1})
	budget := charged(t, first) + charged(t, second)
	c := NewCache(budget, obs.NewRegistry())
	wantOutcome(t, c, first, Miss)
	wantOutcome(t, c, second, Miss)
	wantOutcome(t, c, first, Hit)
	wantOutcome(t, c, second, Hit)
	if got := c.Stats(); got.Evictions != 0 || got.Bytes != budget {
		t.Fatalf("cache %+v, want both entries (%d bytes) and no eviction", got, budget)
	}
}

// TestCacheEvictsCacheWideLRU: eviction drops the least-recently-used entry
// of the whole cache. With three keys filling the budget, after a hit on
// the first, inserting the fourth must drop the second.
func TestCacheEvictsCacheWideLRU(t *testing.T) {
	var keys []Key
	for p := 100; p < 104; p++ {
		keys = append(keys, testKey(t, Request{Op: "broadcast", P: p, L: 6, O: 2, G: 4, K: 1}))
	}
	// The victim must be the largest, so that dropping it alone makes room.
	slices.SortFunc(keys, func(a, b Key) int { return cmp.Compare(charged(t, a), charged(t, b)) })
	first, third, fourth, second := keys[0], keys[1], keys[2], keys[3]
	c := NewCache(charged(t, first)+charged(t, second)+charged(t, third), obs.NewRegistry())
	for _, k := range []Key{first, second, third} {
		wantOutcome(t, c, k, Miss)
	}
	wantOutcome(t, c, first, Hit)
	wantOutcome(t, c, fourth, Miss)
	for _, k := range []Key{first, third, fourth} {
		wantOutcome(t, c, k, Hit)
	}
	if got := c.Stats(); got.Evictions != 1 {
		t.Fatalf("%d evictions, want 1", got.Evictions)
	}
	wantOutcome(t, c, second, Miss)
}

// TestCacheConcurrentStress races Gets over many keys on a cache far
// smaller than the keys' bodies, some of them larger than the
// whole budget. Once the Gets return, the cache must fit its budget, its
// ledger must account for every lookup, and no goroutine may be left behind. Run it under -race.
func TestCacheConcurrentStress(t *testing.T) {
	const (
		workers = 8
		rounds  = 300
		budget  = 64 << 10
	)
	base := runtime.NumGoroutine()
	c := NewCache(budget, obs.NewRegistry())
	var keys []Key
	for p := 2; p < 120; p += 3 {
		keys = append(keys, testKey(t, Request{Op: "broadcast", P: p, L: 6, O: 2, G: 4, K: 1}))
		keys = append(keys, testKey(t, Request{Op: "reduce", P: p, L: 6, O: 2, G: 4, K: 1}))
	}
	for _, p := range []int{1500, 2000} { // each body is larger than the budget
		keys = append(keys, testKey(t, Request{Op: "broadcast", P: p, L: 6, O: 2, G: 4, K: 1}))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			for i := 0; i < rounds; i++ {
				// Skewed toward the low keys, so hits, misses and
				// coalesced waits all happen.
				k := keys[min(rng.IntN(len(keys)), rng.IntN(len(keys)))]
				if res, _, err := c.Get(k); err != nil || len(res.JSON) == 0 {
					t.Errorf("%v: err %v", k, err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent Gets did not finish within 60s: deadlock")
	}
	total := c.Stats()
	if total.Bytes > budget {
		t.Errorf("cache holds %d bytes, budget %d", total.Bytes, budget)
	}
	if got := total.Hits + total.Misses + total.Coalesced; got != workers*rounds {
		t.Errorf("hits %d + misses %d + coalesced %d = %d, want %d lookups",
			total.Hits, total.Misses, total.Coalesced, got, workers*rounds)
	}
	if total.Evictions == 0 {
		t.Error("no evictions: the stress never filled the budget")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the stress, %d before", n, base)
	}
}

// BenchmarkCacheHitParallel times parallel cache hits on 16 warm keys: the
// cost of the hit path's lock, lookup and LRU move, with no HTTP around it.
func BenchmarkCacheHitParallel(b *testing.B) {
	c := NewCache(0, obs.NewRegistry())
	var keys []Key
	for p := 2; p < 18; p++ {
		k, err := Canonicalize(Request{Op: "broadcast", P: p, L: 6, O: 2, G: 4, K: 1}, "")
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Get(k); err != nil {
			b.Fatal(err)
		}
		keys = append(keys, k)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, out, _ := c.Get(keys[i%len(keys)]); out != Hit {
				b.Fatalf("outcome %q, want hit", out)
			}
		}
	})
}
