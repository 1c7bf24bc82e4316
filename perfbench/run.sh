#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload tc-chain --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays inside .bench_build: the
# binary, the Go build cache, Go's temporary and configuration files, the
# durable peers' data directories and the traces.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
# The commit the results belong to: git's, marked dirty with a digest of
# the uncommitted changes when there are any, or a digest of the Go
# sources when the checkout is not a repository.
if [[ -e "$root/.git" ]]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD)"
	if [[ -n "$(git -C "$root" status --porcelain)" ]]; then
		PERFBENCH_COMMIT+="-dirty-$({ git -C "$root" status --porcelain; git -C "$root" diff HEAD; } |
			sha256sum | cut -c1-16)"
	fi
else
	PERFBENCH_COMMIT="src-$(find "$root" -path "$out" -prune -o -name '*.go' -type f -print0 |
		LC_ALL=C sort -z | xargs -0 cat | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
