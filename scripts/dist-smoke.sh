#!/bin/sh
# dist-smoke: end-to-end proof of distributed sweep execution.
#
#  1. start two worker whirlds and one coordinator whirld
#     (-workers http://w1,http://w2), all sharing ONE result store
#     directory — the "shard the grid, share the store" topology
#  2. submit a sweep to the coordinator and await its SSE stream; the
#     job status must show a per-worker served/computed split covering
#     the whole grid
#  3. diff the merged grid (timing/error columns stripped) against a
#     direct single-node whirlsweep run — distribution must be
#     bit-identical
#  4. resubmit: every cell is served from the warm shared store with
#     zero re-simulations on every node (worker counters prove it)
#  5. any node serves any cell computed anywhere: a sweep submitted
#     directly to a worker is fully served from the shared store
#  6. kill -9 one worker mid-sweep on a fresh store: the coordinator
#     re-dispatches its shard and the job still completes with every
#     cell accounted for
#
# Invoked by `make dist-smoke` (part of `make ci`).
set -eu

GO=${GO:-go}
dir=.dist-smoke
rm -rf "$dir" && mkdir -p "$dir"

fail() {
    echo "dist-smoke: $*" >&2
    for log in coord worker1 worker2; do
        [ -f "$dir/$log.err" ] && sed "s/^/dist-smoke: $log: /" "$dir/$log.err" >&2
    done
    exit 1
}

$GO build -o "$dir/whirld" ./cmd/whirld
$GO build -o "$dir/whirlsweep" ./cmd/whirlsweep

# start NAME ARGS... boots one whirld and records its pid + base URL.
start() {
    name=$1
    shift
    # Create the file first: on a loaded host the backgrounded redirect
    # may not have created it before the first sed reads it.
    : > "$dir/$name.out"
    "$dir/whirld" -addr 127.0.0.1:0 "$@" > "$dir/$name.out" 2> "$dir/$name.err" &
    eval "${name}_pid=$!"
    i=0
    addr=
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's/^whirld: listening on //p' "$dir/$name.out")
        [ -n "$addr" ] && break
        kill -0 "$(eval echo \$${name}_pid)" 2>/dev/null || fail "$name died during startup"
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$addr" ] || fail "$name never reported its listen address"
    eval "${name}_url=http://$addr"
}

cleanup() {
    for p in "${coord_pid:-}" "${worker1_pid:-}" "${worker2_pid:-}"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null
    done
    wait 2>/dev/null
}
trap cleanup EXIT

store="$dir/store"
start worker1 -store "$store" -parallel 2
start worker2 -store "$store" -parallel 2
start coord -store "$store" -parallel 2 -workers "$worker1_url,$worker2_url"

curl -fsS "$coord_url/healthz" > /dev/null || fail "coordinator healthz unreachable"

req='{"apps":["delaunay","MIS"],"schemes":["jigsaw","snuca-lru"],"scale":0.05}'
submit() {
    curl -fsS -X POST -H 'Content-Type: application/json' -d "$1" "$2/v1/sweeps" \
        | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p'
}
await() { # await JOBID BASEURL
    (curl -fsS -N --max-time 300 "$2/v1/jobs/$1/stream" || true) | grep -q '^event: done' \
        || fail "job $1 never finished"
}

# --- distributed cold run ---
id=$(submit "$req" "$coord_url")
[ -n "$id" ] || fail "coordinator submit returned no job id"
await "$id" "$coord_url"
status=$(curl -fsS "$coord_url/v1/jobs/$id")
printf '%s\n' "$status" | grep -q '"computed": 4' || fail "cold distributed run did not compute 4 cells: $status"
printf '%s\n' "$status" | grep -q '"workers"' || fail "job status has no per-worker split: $status"

# The merged grid is bit-identical to a single-node run (wall-clock and
# error columns stripped: fields 17-18; field 19 is the cell key, which
# is deterministic and must also match).
curl -fsS "$coord_url/v1/jobs/$id/rows?format=csv" | cut -d, -f1-16,19 > "$dir/dist.csv"
"$dir/whirlsweep" -apps delaunay,MIS -schemes jigsaw,snuca-lru -scale 0.05 -format csv -q \
    | cut -d, -f1-16,19 > "$dir/direct.csv"
diff "$dir/dist.csv" "$dir/direct.csv" || fail "distributed rows differ from the single-node run"

# --- warm resubmit: zero re-simulations on every node ---
computed() { # computed BASEURL -> cells the node has simulated
    curl -fsS "$1/metrics?format=prom" | sed -n 's/^whirld_rows_computed_total \([0-9]*\)$/\1/p'
}
w1_computed=$(computed "$worker1_url")
w2_computed=$(computed "$worker2_url")
[ -n "$w1_computed" ] && [ -n "$w2_computed" ] || fail "worker /metrics?format=prom lacks whirld_rows_computed_total"
id2=$(submit "$req" "$coord_url")
await "$id2" "$coord_url"
status=$(curl -fsS "$coord_url/v1/jobs/$id2")
printf '%s\n' "$status" | grep -q '"served": 4' || fail "warm resubmit did not serve 4 rows: $status"
printf '%s\n' "$status" | grep -q '"computed": 0' || fail "warm resubmit re-simulated on the coordinator: $status"
w1_after=$(computed "$worker1_url")
w2_after=$(computed "$worker2_url")
[ "$w1_computed" = "$w1_after" ] || fail "warm resubmit re-simulated on worker1 ($w1_computed -> $w1_after)"
[ "$w2_computed" = "$w2_after" ] || fail "warm resubmit re-simulated on worker2 ($w2_computed -> $w2_after)"

# --- any node serves any cell: submit the same grid straight to a worker ---
id3=$(submit "$req" "$worker1_url")
await "$id3" "$worker1_url"
status=$(curl -fsS "$worker1_url/v1/jobs/$id3")
printf '%s\n' "$status" | grep -q '"served": 4' || fail "worker1 did not serve from the shared store: $status"

# --- dead worker mid-sweep: the job must still complete, all cells accounted ---
req2='{"apps":["mcf","lbm","hull","cactus"],"schemes":["jigsaw","snuca-lru"],"scale":0.05}'
id4=$(submit "$req2" "$coord_url")
# Kill worker2 the moment the first row lands (the sweep is mid-flight).
# sed quits at the first row, so curl dies on SIGPIPE: expected, muted.
(curl -fsS -N --max-time 300 "$coord_url/v1/jobs/$id4/stream" 2>/dev/null || true) \
    | sed '/^event: row/q' > /dev/null
kill -9 "$worker2_pid" 2>/dev/null || true
await "$id4" "$coord_url"
status=$(curl -fsS "$coord_url/v1/jobs/$id4")
printf '%s\n' "$status" | grep -q '"state": "done"' || fail "job did not survive the worker kill: $status"
printf '%s\n' "$status" | grep -q '"done": 8' || fail "cells went missing after the worker kill: $status"
rows=$(curl -fsS "$coord_url/v1/jobs/$id4/rows?format=csv" | tail -n +2 | wc -l)
[ "$rows" -eq 8 ] || fail "row grid incomplete after worker kill: $rows of 8"
curl -fsS "$coord_url/v1/jobs/$id4/rows?format=csv" | awk -F, 'NR>1 && $18!=""{bad++} END{exit bad>0}' \
    || fail "error rows present after re-dispatch"

# --- graceful shutdown of the survivors ---
kill -TERM "$coord_pid"
wait "$coord_pid" || fail "coordinator exited non-zero on SIGTERM"
kill -TERM "$worker1_pid"
wait "$worker1_pid" || fail "worker1 exited non-zero on SIGTERM"
coord_pid= worker1_pid= worker2_pid=
trap - EXIT

rm -rf "$dir"
echo "dist-smoke OK"
