# Development targets for the logpopt repository.

GO ?= go

.PHONY: all check build test race bench bench-json bench-gate bench-scale trace-smoke report-smoke report-diff-smoke servd-smoke fuzz conform conform-logtime conform-scale emit-smoke loc vet fmt examples reproduce clean

all: build test

# The default gate: build, vet, the full suite, and the race detector.
check: build vet test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark results (BENCH_3.json): wall time plus the
# solver/sim effort counters the benchmarks report via b.ReportMetric
# (nodes/op, prunes/op, events/op, events/sec, peak_rss_bytes,
# req/sec, p99_us land in each entry's "extra"; the encoder's and the tree
# emitter's MB/s too). The scale sweep (P up to
# 1e6) runs in a second invocation with a fixed iteration count so the
# million-processor benchmarks bound the suite's wall time instead of
# filling a benchtime. The serving benchmarks run without -benchmem: HTTP
# allocation counts are scheduler-dependent, and the exact-allocs gate
# would trip on noise — req/sec and p99_us are their gated metrics.
bench-json:
	{ $(GO) test -bench='Portfolio|^BenchmarkSweep|SimReplay|Construct|ScheduleEncode|TreeEmit|ReplayCheck|SortEvents' -benchmem -run=^$$ \
		./internal/continuous/ ./internal/bench/ ./internal/sim/ ; \
	  $(GO) test -bench='Servd' -run=^$$ ./internal/bench/ ; \
	  $(GO) test -bench='Scale' -benchtime 2x -benchmem -run=^$$ ./internal/bench/ ; } \
		| $(GO) run ./cmd/logpcheck benchjson > BENCH_3.json
	@cat BENCH_3.json

# Regression gate: rerun the bench-json suite and diff it against the last
# committed baseline (BENCH_3.json) with `logpcheck benchdiff`. Local runs
# hard-fail on any metric past its threshold; on CI (the CI env var is set)
# the gate only warns, because shared runners are too noisy for wall-time
# thresholds.
# The scale metrics gate direction-aware: events/sec on drops, peak RSS on
# growth, both with generous fractions since they ride on wall time.
bench-gate:
	{ $(GO) test -bench='Portfolio|^BenchmarkSweep|SimReplay|Construct|ScheduleEncode|TreeEmit|ReplayCheck|SortEvents' -benchmem -run=^$$ \
		./internal/continuous/ ./internal/bench/ ./internal/sim/ ; \
	  $(GO) test -bench='Servd' -run=^$$ ./internal/bench/ ; \
	  $(GO) test -bench='Scale' -benchtime 2x -benchmem -run=^$$ ./internal/bench/ ; } \
		| $(GO) run ./cmd/logpcheck benchjson > BENCH_gate.json
	$(GO) run ./cmd/logpcheck benchdiff $(if $(CI),,-strict) \
		-extra 'events/sec=0.25,peak_rss_bytes=0.25,req/sec=0.5,p99_us=0.5' \
		BENCH_3.json BENCH_gate.json
	@rm -f BENCH_gate.json

# Scale smoke: the P=1e5 tier of the million-processor benchmarks under the
# race detector, one iteration each. This is the cheap standing proof that
# the engines' queues and the chunked worker pool stay data-race-free at a
# size where every worker is busy.
bench-scale:
	$(GO) test -race -bench='Scale.*/P100000$$' -benchtime 1x -benchmem -run=^$$ \
		./internal/bench/

# Smoke-test the observability layer: compile a schedule with -trace on and
# assert the emitted file is non-empty, Perfetto-loadable trace JSON.
trace-smoke:
	$(GO) run ./cmd/logpsched -op kitem -P 10 -L 3 -k 8 -trace trace-smoke.json > /dev/null
	$(GO) run ./cmd/logpcheck trace trace-smoke.json
	@rm -f trace-smoke.json

# Smoke-test the run-report artifact chain: compile a schedule with -report
# on and round-trip the emitted JSON through the strict schema checker.
report-smoke:
	$(GO) run ./cmd/logpsched -op broadcast -P 512 -report report-smoke.json > /dev/null
	$(GO) run ./cmd/logpsched -op summation -P 8 -L 5 -o 2 -g 4 -t 28 -report report-smoke-sum.json > /dev/null
	$(GO) run ./cmd/logpcheck report report-smoke.json report-smoke-sum.json
	@rm -f report-smoke.json report-smoke-sum.json

# Smoke-test the run store and differ end to end: archive the same
# deterministic run twice, assert reportdiff sees byte-identical outcomes
# (exit 0), then perturb the second artifact's violation count in place and
# assert the gate trips (non-zero exit). The store directory survives on
# failure so CI can upload it as an artifact.
report-diff-smoke:
	rm -rf report-diff-store
	$(GO) run ./cmd/logpsched -op broadcast -P 64 -runstore report-diff-store > /dev/null
	$(GO) run ./cmd/logpsched -op broadcast -P 64 -runstore report-diff-store > /dev/null
	$(GO) run ./cmd/logpcheck reportdiff report-diff-store
	find report-diff-store -name run-000002.json \
		-exec sed -i 's/"violations": 0/"violations": 7/' {} +
	! $(GO) run ./cmd/logpcheck reportdiff report-diff-store
	@rm -rf report-diff-store

# Smoke-test the scheduling service end to end: build the daemon, boot it on
# an ephemeral port, wait for /readyz, fire 32 concurrent identical cold
# requests and assert the singleflight collapsed them into exactly one solver
# run, check the RED series landed on /metrics, diff `logpsched -remote`
# against a local solve byte-for-byte, then SIGTERM and require a clean exit.
servd-smoke:
	$(GO) build -o servd-smoke-bin ./cmd/logpservd
	$(GO) build -o servd-smoke-sched ./cmd/logpsched
	$(GO) run ./cmd/logpcheck servd -bin ./servd-smoke-bin -sched ./servd-smoke-sched
	@rm -f servd-smoke-bin servd-smoke-sched

# Short fuzzing pass over the schedule validator (against its map-based
# oracle), the schedule JSON encoder (against its encoding/json oracle), the
# event order's counting sort (against a comparison sort), the streamed tree
# schedules (against the materialized tree's schedules), the
# conformance harness, the causal analyzer (against its map-based oracle),
# the checks that share one trace index (against the standalone calls), and
# the engines' in-flight, wake and receive queues (against reference heaps).
fuzz:
	$(GO) test -fuzz=FuzzValidate -fuzztime=30s ./internal/schedule/
	$(GO) test -fuzz=FuzzValidatorConsistency -fuzztime=30s ./internal/schedule/
	$(GO) test -fuzz=FuzzWriteJSON -fuzztime=10s ./internal/schedule/
	$(GO) test -fuzz=FuzzSortEvents -fuzztime=10s ./internal/schedule/
	$(GO) test -fuzz=FuzzStreamTree -fuzztime=10s ./internal/logtime/
	$(GO) test -fuzz=FuzzConform -fuzztime=30s ./internal/conform/
	$(GO) test -fuzz=FuzzCausal -fuzztime=30s ./internal/obs/causal/
	$(GO) test -fuzz=FuzzAnalyzeOracle -fuzztime=30s ./internal/obs/causal/
	$(GO) test -fuzz=FuzzIndexedChecks -fuzztime=30s ./internal/obs/causal/
	$(GO) test -fuzz=FuzzFlightQueue -fuzztime=10s ./internal/sim/
	$(GO) test -fuzz=FuzzDueQueue -fuzztime=10s ./internal/runtime/
	$(GO) test -fuzz=FuzzRecvQueue -fuzztime=10s ./internal/runtime/

# Differential conformance: replay paper constructors and 500 random seeds on
# the simulator (strict/buffered), the goroutine runtime (strict/buffered),
# and the validator, and diff the results.
conform:
	$(GO) run ./cmd/logpconform -seeds 500

# Constructor differential: diff the search-free logtime constructor against
# the heap search, event for event, over the standard machine sweep (paper
# machines, awkward P counts, beyond-2^31 latency), replaying agreed
# schedules through all five backends. A fast corpus rides along.
conform-logtime:
	$(GO) run ./cmd/logpconform -logtime -seeds 100

# Concurrent-check determinism: replay the scale cases at P = 64, 1024, 10^4
# and 10^5 (the last is the benchmark's replay_1e5 run) with Check's stages
# on one worker (GOMAXPROCS=1) and on every core; both runs must conform and
# print identical output.
conform-scale:
	$(GO) build -o conform-scale-bin ./cmd/logpconform
	GOMAXPROCS=1 ./conform-scale-bin -paper=false -seeds 0 -scale 64,1024,10000,100000 > conform-scale-1.txt
	./conform-scale-bin -paper=false -seeds 0 -scale 64,1024,10000,100000 > conform-scale-n.txt
	cmp conform-scale-1.txt conform-scale-n.txt
	@rm -f conform-scale-bin conform-scale-1.txt conform-scale-n.txt

# Emission byte contract at P = 10^6: broadcast, reduce and scan JSON from
# logpsched, once through a pipe and once to a file, must hash to the digests
# in internal/schedule/testdata/p1e6.sha256. The encoder's own tests compare
# against oracles that share its digit writer; these digests do not.
emit-smoke:
	$(GO) build -o emit-smoke-bin ./cmd/logpsched
	for op in broadcast reduce scan; do \
		want=$$(awk -v op=$$op '$$2 == op { print $$1 }' internal/schedule/testdata/p1e6.sha256); \
		pipe=$$(./emit-smoke-bin -op $$op -P 1000000 -render json | sha256sum | cut -d' ' -f1); \
		./emit-smoke-bin -op $$op -P 1000000 -render json > emit-smoke.json || exit 1; \
		file=$$(sha256sum < emit-smoke.json | cut -d' ' -f1); \
		echo "$$op: want $$want, pipe $$pipe, file $$file"; \
		[ -n "$$want" ] && [ "$$pipe" = "$$want" ] && [ "$$file" = "$$want" ] || exit 1; \
	done
	@rm -f emit-smoke-bin emit-smoke.json

# Non-test Go lines per package directory and in total (wc -l; the
# perfbench harness is excluded), the size figure each change reports.
loc:
	@find . -path ./perfbench -prune -o -name '*.go' ! -name '*_test.go' -print | sort | xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

vet:
	$(GO) vet ./...
	gofmt -l .

fmt:
	gofmt -w .

# Run every example once.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/mpi-collectives
	$(GO) run ./examples/allreduce-stencil
	$(GO) run ./examples/streaming-pipeline
	$(GO) run ./examples/distributed-sum

# Regenerate every paper figure and theorem table (EXPERIMENTS.md's source).
reproduce:
	$(GO) run ./cmd/logpbench -all

clean:
	$(GO) clean ./...
