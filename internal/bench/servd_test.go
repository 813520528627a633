package bench

import (
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"testing"

	"logpopt/internal/logp"
	"logpopt/internal/obs"
	"logpopt/internal/obs/timeseries"
	"logpopt/internal/serve/sched"
)

// BenchmarkServdScheduleLoad hammers the scheduling service's hot path over
// real HTTP: the cache-hit answer for the P=1e5 broadcast (the million-
// processor regime's standing representative, solved once during setup).
// Each parallel client holds its own connection; the reported req/sec and
// p99_us land in BENCH_*.json so `make bench-gate` holds serving throughput
// and tail latency the same way it holds solver throughput. p99_us is read
// back from the service's own RED histogram, so the benchmark also proves
// the /metrics pipeline observes every request.
func BenchmarkServdScheduleLoad(b *testing.B) {
	reg := obs.NewRegistry()
	api := sched.NewAPI(sched.Options{
		Cache:    sched.NewCache(256<<20, reg),
		Registry: reg,
	})
	api.SetReady(true)
	// Solve the benchmark key once, off the clock.
	if _, err := api.Warm(sched.Request{Op: "broadcast", P: 100_000, L: 6, O: 2, G: 4, K: 1}); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	url := srv.URL + "/v1/schedule?op=broadcast&p=100000&schedule=false"

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{Transport: &http.Transport{}}
		defer client.CloseIdleConnections()
		for pb.Next() {
			resp, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				b.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
		}
	})
	b.StopTimer()

	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "req/sec")
	}
	// Warm went through the cache directly, not HTTP, so the RED histogram
	// holds exactly the benchmarked requests.
	h := reg.Histogram("servd.http.schedule.duration.us")
	if got := h.Count(); got != int64(b.N) {
		b.Fatalf("RED histogram saw %d requests, want %d", got, b.N)
	}
	b.ReportMetric(float64(h.P99()), "p99_us")
}

// BenchmarkServdBatchSweep serves one POST /v1/batch expanding a 32-machine
// sweep per iteration — the fan-out path through the shared worker pool.
// After the first iteration every key is cached, so this measures batch
// assembly, parallel cache hits, and envelope serialization.
func BenchmarkServdBatchSweep(b *testing.B) {
	reg := obs.NewRegistry()
	api := sched.NewAPI(sched.Options{
		Cache:    sched.NewCache(256<<20, reg),
		Registry: reg,
	})
	api.SetReady(true)
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	body := `{"sweep":{"op":"broadcast","p":[8,16,32,64],"l":[3,6,9,12],"g":[2,4]}}`

	client := srv.Client()
	post := func() {
		resp, err := client.Post(srv.URL+"/v1/batch", "application/json",
			strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			b.Fatalf("status %d: %s", resp.StatusCode, out)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	post() // warm: solve all 32 keys off the clock
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)*32/s, "req/sec")
	}
}

// BenchmarkServdColdFill fills a 64 MiB schedule cache with two budgets'
// worth of distinct keys shaped like perfbench's serve_cold (broadcast,
// reduce, scan and binomial; P from 16 to 2·10⁴, log-spaced below 512;
// L 1…12, o 0…4, g 1…8), under the soft memory limit logpservd sets for
// that budget. One op is one fill of a new cache. heapgoal/budget is the
// largest heap goal the collector set during the fills over the budget: it
// stays under MemoryLimit's (budget + allowance) / budget instead of the
// pacer's twice the live cache. live/charged is the live heap a filled
// cache adds, after a collection, over the bytes it charges: at most 1 when
// the per-entry charge covers what an entry pins.
func BenchmarkServdColdFill(b *testing.B) {
	const budget = 64 << 20
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(sched.MemoryLimit(budget)))
	keys := coldFillKeys(b, 4000)
	goal := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	var maxGoal uint64
	fill := func() *sched.Cache {
		c := sched.NewCache(budget, obs.NewRegistry())
		var filled int64
		for i := 0; filled < 2*budget; i++ {
			if i == len(keys) {
				b.Fatalf("%d keys fill only %d bytes", len(keys), filled)
			}
			res, _, err := c.Get(keys[i])
			if err != nil {
				b.Fatal(err)
			}
			filled += int64(len(res.JSON))
			metrics.Read(goal)
			maxGoal = max(maxGoal, goal[0].Value.Uint64())
		}
		return c
	}
	fill() // one warm-up fill outside the measurement
	var live, charged int64
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		runtime.GC()
		before := timeseries.LiveHeapBytes()
		b.StartTimer()
		c := fill()
		b.StopTimer()
		runtime.GC()
		live += timeseries.LiveHeapBytes() - before
		charged += c.Stats().Bytes
		runtime.KeepAlive(c)
	}
	b.ReportMetric(float64(maxGoal)/budget, "heapgoal/budget")
	b.ReportMetric(float64(live)/float64(charged), "live/charged")
}

// coldFillKeys draws n distinct canonical keys the way serve_cold does:
// the ops in turn, P cycling through 16 bands (four log-spaced from 16 to
// 512, twelve even ones from 512 to 2·10⁴), and a random machine.
func coldFillKeys(b *testing.B, n int) []sched.Key {
	ops := []string{"broadcast", "reduce", "scan", "binomial"}
	rng := rand.New(rand.NewPCG(11, 1))
	seen := make(map[sched.Key]bool)
	var keys []sched.Key
	for i := 0; len(keys) < n; i++ {
		u := float64(i/len(ops)%16) + rng.Float64()
		p := 512 + int((20000-512)*(u-4)/12)
		if u < 4 {
			p = int(16 * math.Exp(math.Log(512.0/16)*u/4))
		}
		k, err := sched.Canonicalize(sched.Request{Op: ops[i%len(ops)], P: p,
			L: logp.Time(1 + rng.IntN(12)), O: logp.Time(rng.IntN(5)), G: logp.Time(1 + rng.IntN(8))}, "")
		if err != nil {
			b.Fatal(err)
		}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}
