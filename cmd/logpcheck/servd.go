package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"logpopt/internal/serve/sched"
)

// servd is the end-to-end proof that a real logpservd process behaves: it
// boots the daemon binary on an ephemeral port, waits for /readyz, fires N
// concurrent identical cold requests and asserts the singleflight
// collapsed them into exactly one solver run, checks that two large keys
// that together fit the cache budget both stay cached, that a POST and a
// GET leaving out o and l get the same key, that a key whose solve fails
// answers the same 400 twice, the second time from the cache, checks the
// RED series made it to /metrics beside the soft memory limit the default
// cache budget sets, and shuts the process down with SIGTERM expecting a
// clean exit.
//
// With -sched pointing at a built logpsched, it also diffs the CLI and the
// service byte-for-byte: `logpsched -render json` solving locally must
// emit exactly the bytes `logpsched -remote <url> -render json` fetches
// from the daemon.
func servd(args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("logpcheck servd", flag.ExitOnError)
	fs.SetOutput(stderr)
	bin := fs.String("bin", "", "`path` to the logpservd binary to smoke-test")
	schedBin := fs.String("sched", "", "`path` to a logpsched binary; when set, diff its local solve against -remote byte-for-byte")
	n := fs.Int("n", 32, "concurrent identical requests to fire at one cold key")
	fs.Parse(args) //nolint:errcheck // ExitOnError: 0 after -h, 2 on a bad flag
	if *bin == "" {
		fmt.Fprintln(stderr, "logpcheck servd: -bin is required (path to a built logpservd)")
		return 1
	}
	if err := smoke(*bin, *schedBin, *n, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "logpcheck servd: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "servd smoke: ok")
	return 0
}

func smoke(bin, schedBin string, n int, stdout, stderr io.Writer) error {
	dir, err := os.MkdirTemp("", "logpcheck-servd")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	addrFile := filepath.Join(dir, "servd.addr")

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addrfile", addrFile)
	cmd.Stderr = stderr
	// The daemon leaves a GOMEMLIMIT it inherits alone; without one it sets
	// the limit its budget implies, which the /metrics check expects.
	cmd.Env = append(os.Environ(), "GOMEMLIMIT=")
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", bin, err)
	}
	// If anything below fails, don't leave the daemon running.
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		}
	}()

	// The daemon writes its address file once listening.
	var base string
	if !poll(func() bool {
		b, err := os.ReadFile(addrFile)
		base = "http://" + strings.TrimSpace(string(b))
		return err == nil && len(b) > 0
	}) {
		return fmt.Errorf("daemon never wrote %s within %s", addrFile, pollTimeout)
	}
	if !poll(func() bool { _, err := getBody(base + "/readyz"); return err == nil }) {
		return fmt.Errorf("/readyz never answered 200 within %s", pollTimeout)
	}
	fmt.Fprintf(stdout, "servd smoke: ready at %s\n", base)

	// One cold key, n concurrent requests: the singleflight contract says
	// the solver runs once and everyone else coalesces onto it (the warmup
	// seeds P=64 and P=4096, so P=3000 is cold).
	url := base + "/v1/schedule?op=broadcast&p=3000&schedule=false"
	outcomes := make([]string, n)
	errs := make([]error, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			start.Wait()
			var env struct {
				Cache string `json:"cache"`
			}
			errs[i] = getJSON(url, &env)
			outcomes[i] = env.Cache
		}(i)
	}
	start.Done()
	wg.Wait()
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return fmt.Errorf("request %d: %w", i, errs[i])
		}
		counts[outcomes[i]]++
	}
	if counts["miss"] != 1 {
		return fmt.Errorf("%d concurrent cold requests produced %d solver runs, want exactly 1 (outcomes %v)", n, counts["miss"], counts)
	}
	fmt.Fprintf(stdout, "servd smoke: %d concurrent requests -> 1 solve, %d coalesced, %d hits\n",
		n, counts["coalesced"], counts["hit"])

	// The cache's own ledger must agree: exactly 3 misses total (2 warmup
	// solves + this one).
	var cache struct {
		Totals struct {
			Misses int64 `json:"misses"`
		} `json:"totals"`
	}
	if err := getJSON(base+"/debug/cache", &cache); err != nil {
		return err
	}
	if cache.Totals.Misses != 3 {
		return fmt.Errorf("/debug/cache reports %d misses, want 3 (two warmups + one smoke solve)", cache.Totals.Misses)
	}

	// Broadcast P=100000 (11.75 MB) and reduce P=99974 (12.3 MB) together
	// fit the default 256 MiB budget, so fetched in alternation both must
	// hit on the second round.
	pair := []string{"op=broadcast&p=100000", "op=reduce&p=99974"}
	for round := range 2 {
		for _, q := range pair {
			var env struct {
				Cache string `json:"cache"`
			}
			if err := getJSON(base+"/v1/schedule?schedule=false&"+q, &env); err != nil {
				return err
			}
			if round == 1 && env.Cache != "hit" {
				return fmt.Errorf("second fetch of %s: cache %q, want hit (both fit the budget)", q, env.Cache)
			}
		}
	}
	fmt.Fprintln(stdout, "servd smoke: two large keys within the budget both hit on refetch")

	// A request that leaves out o and l takes the same defaults as a POST
	// body and as a query string.
	var got, want struct {
		Key string `json:"key"`
	}
	if err := getJSON(base+"/v1/schedule?schedule=false&op=broadcast&p=64", &want); err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/schedule?schedule=false", "application/json", strings.NewReader(`{"op":"broadcast","p":64}`))
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || got.Key != want.Key {
		return fmt.Errorf("POST without o or l: status %d, key %q, err %v; want the GET key %q", resp.StatusCode, got.Key, err, want.Key)
	}
	fmt.Fprintln(stdout, "servd smoke: POST and GET without o or l share one key")

	// A postal solve that fails (the word search runs out of budget) is
	// cached like an answer: the repeat gets the same 400 body as a hit.
	failing := base + "/v1/schedule?op=continuous&p=1000&l=4&k=2"
	var bodies [2]string
	var hits [3]int64
	if hits[0], err = cacheHits(base); err != nil {
		return err
	}
	for i := range bodies {
		if bodies[i], err = getStatus(failing, http.StatusBadRequest); err != nil {
			return err
		}
		if hits[i+1], err = cacheHits(base); err != nil {
			return err
		}
	}
	if bodies[0] != bodies[1] || hits[1] != hits[0] || hits[2] != hits[1]+1 {
		return fmt.Errorf("failing key twice: bodies %q and %q, cache hits %v; want one body and the second request a hit",
			bodies[0], bodies[1], hits)
	}
	fmt.Fprintln(stdout, "servd smoke: a failed solve answers the same 400 twice, the second from the cache")

	// The RED series for the schedule endpoint must be on /metrics.
	metrics, err := getBody(base + "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		"logpopt_servd_http_schedule_requests_total",
		"logpopt_servd_http_schedule_duration_us",
		"logpopt_servd_cache_coalesced_total",
		"logp_build_info",
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("/metrics missing series %s", want)
		}
	}
	fmt.Fprintln(stdout, "servd smoke: RED series present on /metrics")

	limit := fmt.Sprintf("logpopt_servd_memory_limit_bytes %d\n", sched.MemoryLimit(sched.DefaultCacheBytes))
	if !strings.Contains(metrics, limit) {
		return fmt.Errorf("/metrics lacks %q: the default budget's soft memory limit", strings.TrimSpace(limit))
	}
	fmt.Fprintln(stdout, "servd smoke: soft memory limit is the default budget plus the allowance")

	// CLI/service agreement: a local solve and a -remote fetch of the same
	// key must be byte-identical: broadcast below and above P = 512, and one
	// key from each other op family (tree expansion, closed form, postal
	// search, deadline-driven).
	if schedBin != "" {
		for _, key := range []string{
			"-op broadcast -P 300",
			"-op broadcast -P 3000",
			"-op scan -P 3000",
			"-op alltoall -P 64 -k 2",
			"-op kitem -P 64 -L 3 -k 8",
			"-op summation -P 64 -t 28",
		} {
			args := append(strings.Fields(key), "-render", "json")
			local, err := exec.Command(schedBin, args...).Output()
			if err != nil {
				return fmt.Errorf("local logpsched %s: %w", key, err)
			}
			remote, err := exec.Command(schedBin, append(args, "-remote", base)...).Output()
			if err != nil {
				return fmt.Errorf("remote logpsched %s: %w", key, err)
			}
			if string(local) != string(remote) {
				return fmt.Errorf("logpsched %s output differs: local %d bytes, remote %d bytes", key, len(local), len(remote))
			}
			fmt.Fprintf(stdout, "servd smoke: logpsched -remote output byte-identical to local solve for %s\n", key)
		}
	}

	// Graceful shutdown: SIGTERM, clean exit.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signaling daemon: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		exited = true
		if err != nil {
			return fmt.Errorf("daemon exited uncleanly after SIGTERM: %w", err)
		}
	case <-time.After(pollTimeout):
		return fmt.Errorf("daemon did not exit within %s of SIGTERM", pollTimeout)
	}
	fmt.Fprintln(stdout, "servd smoke: clean shutdown on SIGTERM")
	return nil
}

// pollTimeout bounds each wait on the daemon: startup, readiness, shutdown.
const pollTimeout = 15 * time.Second

// poll retries ok every 20ms until it holds or pollTimeout passes.
func poll(ok func() bool) bool {
	for deadline := time.Now().Add(pollTimeout); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if ok() {
			return true
		}
	}
	return false
}

// getJSON GETs url and decodes the body into out.
func getJSON(url string, out any) error {
	body, err := getBody(url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), out)
}

// cacheHits reads the cache's hit count from /debug/cache.
func cacheHits(base string) (int64, error) {
	var cache struct {
		Totals struct {
			Hits int64 `json:"hits"`
		} `json:"totals"`
	}
	err := getJSON(base+"/debug/cache", &cache)
	return cache.Totals.Hits, err
}

// getBody GETs url, requiring 200.
func getBody(url string) (string, error) {
	return getStatus(url, http.StatusOK)
}

// getStatus GETs url, requiring the status code want.
func getStatus(url string, want int) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != want {
		return "", fmt.Errorf("GET %s: %d, want %d: %s", url, resp.StatusCode, want, b)
	}
	return string(b), nil
}
