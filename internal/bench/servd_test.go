package bench

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"logpopt/internal/obs"
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
