#!/usr/bin/env bash
# Builds the benchmark binary from source and runs one workload. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload batch-cold --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and traced-run span files all live in
# the build directory ($CARGO_TARGET_DIR, default .bench_build), so a
# run writes nothing outside the checkout. Build output goes to stderr;
# the benchmark's last line on stdout is its JSON result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export PERFBENCH_OUT="$out"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
