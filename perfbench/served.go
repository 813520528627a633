package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"logpopt/internal/obs"
	"logpopt/internal/serve/sched"
)

// daemon is one running logpservd child with its default flags, on an
// ephemeral port.
type daemon struct {
	cmd    *exec.Cmd
	done   chan error // cmd.Wait's result, delivered once
	exited bool
	base   string
	boot   time.Duration // exec to the first /readyz 200
	client *http.Client
	flags  []string
}

// startDaemon execs logpservd and returns once /readyz answers 200.
func (e *env) startDaemon(extra ...string) (*daemon, error) {
	addrFile := filepath.Join(e.work, "servd.addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	flags := append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrFile}, extra...)
	d := &daemon{
		cmd:   e.command("logpservd", flags...),
		done:  make(chan error, 1),
		flags: flags,
		// One keep-alive connection: the client is a closed loop.
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting logpservd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	ok := false
	defer func() {
		if !ok {
			d.kill()
		}
	}()
	deadline := start.Add(30 * time.Second)
	poll := func() error {
		select {
		case err := <-d.done:
			d.exited = true
			return fmt.Errorf("logpservd exited before ready: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("logpservd not ready after 30s")
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	}
	for d.base == "" {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			break
		}
		if err := poll(); err != nil {
			return nil, err
		}
	}
	for {
		if resp, err := d.client.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if err := poll(); err != nil {
			return nil, err
		}
	}
	d.boot = time.Since(start)
	ok = true
	return d, nil
}

// stop sends SIGTERM, waits for the graceful exit, and returns the child's
// own peak RSS in MiB.
func (d *daemon) stop() (float64, error) {
	d.client.CloseIdleConnections()
	if d.exited {
		return 0, errors.New("logpservd already exited")
	}
	d.exited = true
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case err := <-d.done:
		if err != nil {
			return 0, fmt.Errorf("logpservd exit: %w", err)
		}
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // the timeout is the error reported
		<-d.done
		return 0, errors.New("logpservd did not exit within 20s of SIGTERM")
	}
	return rssMiB(d.cmd.ProcessState), nil
}

// kill ends a daemon on an error path and waits for it.
func (d *daemon) kill() {
	if d.exited {
		return
	}
	d.exited = true
	d.client.CloseIdleConnections()
	d.cmd.Process.Kill() //nolint:errcheck // best effort on an error path; Wait below reaps it
	<-d.done
}

// getJSON decodes a small introspection document.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// cacheTotals reads the totals row of /debug/cache.
func (d *daemon) cacheTotals() (sched.ShardStats, error) {
	var doc struct {
		Totals sched.ShardStats `json:"totals"`
	}
	err := d.getJSON("/debug/cache", &doc)
	return doc.Totals, err
}

// promSeries reads the named series from /metrics (full series names,
// labels included, e.g. `x{quantile="0.5"}`).
func (d *daemon) promSeries(names ...string) (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics %s: %w", name, err)
		}
		out[name] = f
	}
	return out, sc.Err()
}

const (
	promSolveSum = "logpopt_servd_cache_solve_us_sum"
	promHTTPP50  = `logpopt_servd_http_schedule_duration_us{quantile="0.5"}`
)

// fetch is one timed request.
type fetch struct {
	total, ttfb time.Duration
	ok          bool
}

// drive sends reqs one at a time over the daemon's single keep-alive
// connection and reads every full format=schedule body. Each body is
// checked against refs (exact length and SHA-256) after its timer stops.
func (d *daemon) drive(reqs []request, refs map[sched.Key]digest) []fetch {
	out := make([]fetch, len(reqs))
	var buf bytes.Buffer
	for i, r := range reqs {
		buf.Reset()
		t0 := time.Now()
		resp, err := d.client.Get(d.base + "/v1/schedule?" + r.Query + "&format=schedule")
		if err != nil {
			out[i] = fetch{total: time.Since(t0)}
			continue
		}
		ttfb := time.Since(t0)
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		out[i] = fetch{total: time.Since(t0), ttfb: ttfb}
		out[i].ok = err == nil && resp.StatusCode == http.StatusOK && digestOf(buf.Bytes()) == refs[r.Key]
	}
	return out
}

// servedRun is what one daemon lifetime measured.
type servedRun struct {
	setups        []float64 // seconds, exec to /readyz 200 plus the prefill
	prefillFailed int
	prefills      int
	timed         []fetch
	before, after sched.ShardStats // cache totals around the timed requests
	solveUS       float64          // daemon solve µs spent inside the timed window
	httpP50US     float64
	rss           float64
	ledgerErr     error
}

// runDaemon sets a daemon up `setups` times (boot to /readyz 200, then the
// prefill), timing each and keeping the last daemon; then it sends the
// timed requests, reconciles the cache ledger and stops the daemon.
func (e *env) runDaemon(setups int, prefill, timed []request, refs map[sched.Key]digest, extra ...string) (*servedRun, error) {
	sr := &servedRun{}
	var d *daemon
	for i := 0; i < setups; i++ {
		var err error
		if d, err = e.startDaemon(extra...); err != nil {
			return nil, err
		}
		t0 := time.Now()
		for _, f := range d.drive(prefill, refs) {
			sr.prefills++
			if !f.ok {
				sr.prefillFailed++
			}
		}
		sr.setups = append(sr.setups, (d.boot + time.Since(t0)).Seconds())
		if i < setups-1 {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.kill()
	e.daemonFlags = d.flags

	var err error
	if sr.before, err = d.cacheTotals(); err != nil {
		return nil, err
	}
	pre, err := d.promSeries(promSolveSum)
	if err != nil {
		return nil, err
	}
	sr.timed = d.drive(timed, refs)
	if sr.after, err = d.cacheTotals(); err != nil {
		return nil, err
	}
	post, err := d.promSeries(promSolveSum, promHTTPP50)
	if err != nil {
		return nil, err
	}
	sr.solveUS = post[promSolveSum] - pre[promSolveSum]
	sr.httpP50US = post[promHTTPP50]
	if sr.rss, err = d.stop(); err != nil {
		return nil, err
	}

	// Every /v1/schedule request is one cache lookup, and so is each of the
	// daemon's warmup solves.
	t := sr.after
	lookups := int64(len(warmupKeys) + len(prefill) + len(timed))
	if got := t.Hits + t.Misses + t.Coalesced; got != lookups {
		sr.ledgerErr = fmt.Errorf("cache ledger: hits %d + misses %d + coalesced %d = %d, want %d lookups",
			t.Hits, t.Misses, t.Coalesced, got, lookups)
	}
	return sr, nil
}

// servedRefs solves every distinct key of reqs in-process on two workers
// (the daemon is not running yet) and returns the merged stage timings.
func servedRefs(tr *obs.Tracer, reqs []request) (map[sched.Key]digest, *stages, error) {
	var keys []request
	seen := make(map[sched.Key]bool)
	for _, r := range reqs {
		if !seen[r.Key] {
			seen[r.Key] = true
			keys = append(keys, r)
		}
	}
	const workers = 2
	sts := make([]*stages, workers)
	digests := make([]digest, len(keys))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range sts {
		sts[w] = newStages(tr)
		sts[w].tid = w
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys) && errs[w] == nil; i += workers {
				var req sched.Request
				if req, errs[w] = keys[i].parse(); errs[w] == nil {
					digests[i], errs[w] = sts[w].solve(req)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	refs := make(map[sched.Key]digest, len(keys))
	for i, r := range keys {
		refs[r.Key] = digests[i]
	}
	for _, o := range sts[1:] {
		sts[0].merge(o)
	}
	return refs, sts[0], nil
}

// blockRate is the median over consecutive blocks of `block` operations
// of operations per second: the plans make every block the same work, and
// the median keeps a burst of machine noise out of the rate.
func blockRate(latMS []float64, block int) float64 {
	var rates []float64
	for i := 0; i+block <= len(latMS); i += block {
		rates = append(rates, float64(block)/(sum(latMS[i:i+block])/1e3))
	}
	return median(rates)
}

// runServed is serve_hot (prefill non-empty) or serve_cold; block is the
// plan's unit of equal work.
func (e *env) runServed(prefill, timed []request, block, setups int, out *result) error {
	tr := e.tracer()
	refs, st, err := servedRefs(tr, append(append([]request(nil), prefill...), timed...))
	if err != nil {
		return err
	}
	sr, err := e.runDaemon(setups, prefill, timed, refs)
	if err != nil {
		return err
	}
	out.Attempted = sr.prefills + len(timed)
	out.Failed = sr.prefillFailed
	var totals, ttfbs, bodies []float64
	for _, f := range sr.timed {
		if !f.ok {
			out.Failed++
		}
		totals = append(totals, ms(f.total))
		ttfbs = append(ttfbs, ms(f.ttfb))
		bodies = append(bodies, ms(f.total-f.ttfb))
	}
	if sr.ledgerErr != nil {
		out.problem(sr.ledgerErr)
	}
	hits := sr.after.Hits - sr.before.Hits
	misses := sr.after.Misses - sr.before.Misses
	coalesced := sr.after.Coalesced - sr.before.Coalesced
	evictions := sr.after.Evictions - sr.before.Evictions
	e.detail["cache_timed"] = map[string]int64{
		"hits": hits, "misses": misses, "coalesced": coalesced, "evictions": evictions,
	}
	e.detail["encode_bytes"] = st.bytes
	e.detail["requests"] = len(timed)

	if !e.trace {
		out.metric("setup_s", median(sr.setups), "s")
		out.metric("throughput_per_s", blockRate(totals, block), "1/s")
		out.metric("latency_p50_ms", median(totals), "ms")
		out.metric("latency_p90_ms", quantile(totals, 0.9), "ms")
		out.metric("peak_rss_mb", sr.rss, "MiB")
		return nil
	}

	// Traced: the same requests against a fresh daemon started with its
	// -trace flag; the slowdown is the tracing overhead.
	traced, err := e.runDaemon(1, prefill, timed, refs, "-trace", filepath.Join(e.work, "servd-trace.json"))
	if err != nil {
		return err
	}
	out.Attempted += traced.prefills + len(timed)
	out.Failed += traced.prefillFailed
	var tracedTotal float64
	for _, f := range traced.timed {
		tracedTotal += ms(f.total)
		if !f.ok {
			out.Failed++
		}
	}
	if traced.ledgerErr != nil {
		out.problem(traced.ledgerErr)
	}
	if err := e.writeTrace(tr); err != nil {
		return err
	}
	// Stages of the served path: canonicalize on every request, the
	// daemon's own solve time (compile + encode on misses, from its
	// servd.cache.solve.us histogram), and the body write as the client
	// sees it. The rest is HTTP and cache bookkeeping.
	stageMS := float64(len(timed))*st.mean("sched.canonicalize")/1e3 + sr.solveUS/1e3 + sum(bodies)
	out.metric("sched.cache.hit_ratio", float64(hits)/float64(hits+misses+coalesced), "frac")
	out.metric("sched.cache.misses", float64(misses), "count")
	out.metric("sched.cache.evictions", float64(evictions), "count")
	out.metric("sched.cache.bytes", float64(sr.after.Bytes), "bytes")
	out.metric("sched.http.duration_p50_ms", sr.httpP50US/1e3, "ms")
	out.metric("http.ttfb_ms", median(ttfbs), "ms")
	out.metric("http.body_ms", median(bodies), "ms")
	out.metric("trace.overhead_frac", tracedTotal/sum(totals)-1, "frac")
	out.metric("stage.unaccounted_frac", 1-stageMS/sum(totals), "frac")
	e.solveMetrics(st, out)
	return nil
}
