#!/usr/bin/env bash
# Builds logpservd, logpsched, logpconform and the perfbench harness from
# the checkout's sources, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it writes (binaries, Go build
# cache, daemon address files, traces) goes under $CARGO_TARGET_DIR, default
# .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/logpservd || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/logpservd not found)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off

go build -o "$out/bin/" ./cmd/logpservd ./cmd/logpsched ./cmd/logpconform
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" -root . "$@"
