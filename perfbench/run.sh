#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in, then runs
# it with the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every temporary file (the campaign's
# journal directory included) stay under $CARGO_TARGET_DIR, .bench_build
# by default, inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a waffle checkout (go.mod, internal/ and perfbench/ are needed)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out/tmp" "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
