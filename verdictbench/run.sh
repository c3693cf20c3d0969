#!/usr/bin/env bash
# Builds verdictbench from source and runs it. Run from the repository root:
#
#   bash verdictbench/run.sh --workload regress --seed 1 --seconds 30 --trace 0
#   bash verdictbench/run.sh --workload all --seconds 30      # every workload, one process each
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), including the Go build
# cache, so a fresh checkout compiles the standard library on its first run.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
out=$build/verdictbench
mkdir -p "$out"

export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOPATH=$build/go-path
export XDG_CONFIG_HOME=$build/go-config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/verdictbench" .)

args=("$@")
for i in "${!args[@]}"; do
	if [[ ${args[$i]} == --workload && ${args[$((i + 1))]:-} == all ]]; then
		for w in regress search warm-race remote-wire; do
			args[i + 1]=$w
			"$out/verdictbench" --out "$out" "${args[@]}"
		done
		exit 0
	fi
done
exec "$out/verdictbench" --out "$out" "$@"
