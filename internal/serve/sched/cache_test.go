package sched

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
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
	c := NewCache(4, 0, reg)
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

	var total ShardStats
	for _, s := range c.Stats() {
		total.Add(s)
	}
	if total.Misses != 1 {
		t.Fatalf("shard stats misses = %d, want 1", total.Misses)
	}
	if total.Hits+total.Coalesced != n-1 {
		t.Fatalf("hits+coalesced = %d, want %d", total.Hits+total.Coalesced, n-1)
	}
	if got := reg.Counter("servd.cache.misses").Value(); got != 1 {
		t.Fatalf("registry misses = %d, want 1", got)
	}
}

func TestCacheHitServesSameBytes(t *testing.T) {
	c := NewCache(2, 0, obs.NewRegistry())
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
	c := NewCache(1, 0, obs.NewRegistry())
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
	if got := c.Stats()[0].Bytes; got != charged {
		t.Fatalf("cache charges %d bytes, want %d", got, charged)
	}
}

// TestCachedResultHoldsOnlyJSON: a cached broadcast at P = 10⁵ pins its
// body and little else. Its 2(P-1) events alone would add ~9.6 MB to the
// ~11 MB body, so a live-heap growth under 1.25 × len(JSON) across the
// solve proves the entry retains no event slice.
func TestCachedResultHoldsOnlyJSON(t *testing.T) {
	c := NewCache(1, 0, obs.NewRegistry())
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
	// One shard so LRU order is globally observable; a budget that holds
	// only a few small schedules.
	c := NewCache(1, 2048, reg)
	keys := make([]Key, 0, 12)
	for p := 2; p < 14; p++ {
		keys = append(keys, testKey(t, Request{Op: "broadcast", P: p, L: 6, O: 2, G: 4, K: 1}))
	}
	for _, k := range keys {
		if _, _, err := c.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	var total ShardStats
	for _, s := range c.Stats() {
		total.Add(s)
	}
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
	c := NewCache(1, 0, reg)
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
	var total ShardStats
	for _, s := range c.Stats() {
		total.Add(s)
	}
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
	c := NewCache(1, 0, obs.NewRegistry())
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
	c := NewCache(1, 0, obs.NewRegistry())
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
	var total ShardStats
	for _, s := range a.cache.Stats() {
		total.Add(s)
	}
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
