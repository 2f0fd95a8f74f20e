#!/bin/sh
# bench-ab: the micro-benchmark regression gate. It compares a base
# revision with the working tree on the same machine, so its verdict
# depends on the change and not on the host.
#
#  1. check the base revision out into a temporary git worktree
#  2. build one test binary per package with benchmarks, on each side,
#     before anything is measured
#  3. run the binaries one at a time in $rounds rounds: each benchmark
#     on the base and on the change back to back, the side that runs
#     first alternating from round to round, so a slow spell on the
#     machine lands on both sides alike; each side's raw output goes to
#     base.txt or change.txt (benchstat input as they stand)
#  4. whirltool benchdelta base.txt change.txt compares the medians and
#     fails on a regression beyond both 20% and the base's spread
#
# Usage: scripts/bench-ab.sh [BASE]
#   BASE defaults to HEAD^: on a pull request's merge commit that is the
#   base branch tip, on a push to main the previous commit.
# Invoked by `make bench-ab` (part of `make ci`).
set -eu
cd "$(dirname "$0")/.."

base_rev=${1:-HEAD^}
rounds=6

# The gate runs every benchmark of every package in the module except
# these: one line each of package directory, an extended regexp over
# top-level benchmark names, and the reason.
optout='
. ^Benchmark(Fig|Table|Ablation) regenerates a paper figure: seconds per op, and make bench already smoke-runs it
'

start=$(date +%s)
tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/base" 2>/dev/null || true
    rm -rf "$tmp"
    git worktree prune
}
trap cleanup EXIT
trap 'exit 1' INT TERM

git worktree add --quiet --detach "$tmp/base" "$base_rev"
echo "bench-ab: base $(git -C "$tmp/base" rev-parse --short HEAD) ($base_rev) vs the working tree"
echo "$optout" | while read -r dir re reason; do
    if [ -n "$dir" ]; then
        echo "bench-ab: opted out: $dir $re ($reason)"
    fi
done

# srcof SIDE prints the tree SIDE builds and runs in.
srcof() {
    if [ "$1" = base ]; then
        echo "$tmp/base"
    else
        pwd
    fi
}

# pkgs SRC prints the directory, relative to SRC, of every package under
# SRC whose tests declare a benchmark.
pkgs() {
    mod=$(cd "$1" && go list -m)
    (cd "$1" && go list -f '{{.ImportPath}}' ./...) | while read -r path; do
        rel=.${path#"$mod"}
        if grep -qs '^func Benchmark' "$1/$rel"/*_test.go; then
            echo "$rel"
        fi
    done
}

# skipfor DIR prints the opt-out regexp for package DIR, if any.
skipfor() {
    echo "$optout" | while read -r dir re reason; do
        if [ "$dir" = "$1" ]; then
            echo "$re"
        fi
    done
}

go build -o "$tmp/whirltool" ./cmd/whirltool
for side in base change; do
    src=$(srcof "$side")
    mkdir -p "$tmp/$side"
    pkgs "$src" > "$tmp/$side.pkgs"
    while read -r rel; do
        (cd "$src" && go test -c -o "$tmp/$side/$(echo "$rel" | tr / _).test" "$rel")
    done < "$tmp/$side.pkgs"
done

# run SIDE REL ARGS... runs SIDE's binary for package REL, if SIDE has
# that package, from the package's directory.
run() {
    bin=$tmp/$1/$(echo "$2" | tr / _).test
    if [ -f "$bin" ]; then
        (cd "$(srcof "$1")/$2" && shift 2 && "$bin" "$@" </dev/null)
    fi
}

# Every top-level benchmark either side declares and the opt-out list
# keeps, as "REL NAME" lines.
sort -u "$tmp/base.pkgs" "$tmp/change.pkgs" | while read -r rel; do
    skip=$(skipfor "$rel")
    { run base "$rel" -test.list '^Benchmark'; run change "$rel" -test.list '^Benchmark'; } |
        sort -u | grep -Ev "${skip:-^$}" | sed "s|^|$rel |"
done > "$tmp/benches"
sed 's/^/bench-ab: guarded: /' "$tmp/benches"

: > base.txt
: > change.txt
round=1
while [ "$round" -le "$rounds" ]; do
    echo "bench-ab: round $round of $rounds"
    first=base second=change
    if [ $((round % 2)) = 0 ]; then
        first=change second=base
    fi
    while read -r rel name; do
        for side in "$first" "$second"; do
            run "$side" "$rel" -test.run '^$' -test.bench "^$name\$" \
                -test.benchmem -test.benchtime 200ms -test.count 1 -test.timeout 10m >> "$side.txt"
        done
    done < "$tmp/benches"
    round=$((round + 1))
done

status=0
"$tmp/whirltool" benchdelta base.txt change.txt || status=$?
echo "bench-ab: wall time $(($(date +%s) - start)) s"
exit "$status"
