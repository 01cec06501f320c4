#!/usr/bin/env bash
# Builds flickerbench from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/flickerbench/run.sh -workload classic_hello -seed 1
#
# The Go build cache, temporary files, the binary and everything else the
# go command writes stay inside the checkout, under .bench_build/. The build
# uses only the local toolchain and the repository's own sources; it fails
# (and nothing runs) when the repository's root module is not there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
# The go command keeps its telemetry counters under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd "$root/cmd/flickerbench" && go build -o "$build/flickerbench" .)
exec "$build/flickerbench" "$@"
