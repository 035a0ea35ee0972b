#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-sd --seed 1 --seconds 20 --trace 0
#
# Every build output, the Go build cache included, stays under
# .bench_build/ in the repository root. The last line of standard
# output is the JSON result; see perfbench/main.go for the metrics.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

# Provenance: the commit the benchmark was built from, when the tree
# is a git checkout.
sha=unknown
dirty=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	if [ "$sha" != unknown ]; then
		dirty=false
		if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
			dirty=true
		fi
	fi
fi
export PERFBENCH_GIT_SHA="$sha" PERFBENCH_GIT_DIRTY="$dirty"
exec "$out/perfbench" "$@"
