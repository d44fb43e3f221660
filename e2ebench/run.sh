#!/usr/bin/env bash
# Builds sesd, sesrouter and the load generator from the checkout this
# script sits in, then runs one benchmark workload against the real
# daemons on loopback. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload edit-warm --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout: the Go build cache, the
# binaries, the daemons' data directories and logs, and the span dumps
# of traced runs. The last line of standard output is the result.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sesd || ! -d cmd/sesrouter || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the root of a full ses checkout" >&2
	exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/home" "$out/work"

# Keep the toolchain's caches and temp files inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home" GOPATH="$out/home/go" GOTOOLCHAIN=local \
	GOFLAGS= GOENV=off

go build -o "$out/bin/" ./cmd/sesd ./cmd/sesrouter >&2
(cd e2ebench && go build -o "$out/bin/e2ebench" .) >&2

commit=unknown
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/bin/e2ebench" -bin "$out/bin" -work "$out/work" -commit "$commit" "$@"
