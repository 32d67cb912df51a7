#!/usr/bin/env bash
# Builds the daemons and the benchmark from source, then runs one
# workload. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binaries, the per-run work
# directories (removed at exit) and the traced runs' span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/cfdserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and perfbench/ are needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local

go build -o "$out/bin/" ./cmd/cfdserve ./cmd/cfdrouter >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
