#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload replay-gbdt --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --all --seed 1 --seconds 15
#
# --all runs every workload untraced and then traced, one process per run,
# and fails if any run fails.
#
# Everything the build writes (Go build cache, temporaries, the binary,
# spans) stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
if [[ "${1:-}" == "--all" ]]; then
	shift
	status=0
	for workload in replay-gbdt replay-scale serve-fleet; do
		for traced in 0 1; do
			echo "== $workload --trace $traced"
			"$out/perfbench" --workload "$workload" --trace "$traced" "$@" || status=1
		done
	done
	exit "$status"
fi
exec "$out/perfbench" "$@"
