#!/usr/bin/env bash
# Builds the request-path benchmark from the sources of the checkout it
# is started in, then runs it with the given arguments:
#
#   bash spstabench/run.sh --workload cold-analyze --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build writes (binary,
# Go build cache, temporary files) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The Go toolchain keeps its settings and telemetry under the user config
# directory; point that into the checkout as well.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/spstabench" && go build -o "$out/spstabench" .)
exec "$out/spstabench" "$@"
