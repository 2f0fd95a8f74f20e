#!/bin/sh
# fleet-smoke: end-to-end proof of the elastic fleet.
#
#  1. start a coordinator whirld with NO -workers flag and two worker
#     whirlds that join it themselves (-join): membership comes from
#     registration alone, visible in GET /v1/workers
#  2. submit a sweep; the joined workers compute every cell, and the
#     merged grid (timing/error columns stripped) is bit-identical to
#     a direct single-node whirlsweep run
#  3. start a THIRD worker while a bigger sweep is mid-flight: the
#     dispatcher rebalances and the late joiner computes cells of a
#     job that started before it existed
#  4. kill -9 one worker mid-sweep: its heartbeats stop, the lease
#     expires, the fleet marks it dead, and its cells re-route to the
#     survivors — the job completes with every cell accounted for
#  5. graceful shutdown: a SIGTERM'd worker deregisters (a departure,
#     not a lease expiry)
#
# Invoked by `make fleet-smoke` (part of `make ci`).
set -eu

GO=${GO:-go}
dir=.fleet-smoke
rm -rf "$dir" && mkdir -p "$dir"

fail() {
    echo "fleet-smoke: $*" >&2
    for log in coord worker1 worker2 worker3; do
        [ -f "$dir/$log.err" ] && sed "s/^/fleet-smoke: $log: /" "$dir/$log.err" >&2
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
    for p in "${coord_pid:-}" "${worker1_pid:-}" "${worker2_pid:-}" "${worker3_pid:-}"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null
    done
    wait 2>/dev/null
}
trap cleanup EXIT

# alive polls GET /v1/workers until the alive count matches.
alive() { # alive N WHAT
    i=0
    while [ $i -lt 100 ]; do
        curl -fsS "$coord_url/v1/workers" | grep -q "\"alive\": $1," && return 0
        sleep 0.1
        i=$((i + 1))
    done
    fail "fleet never reached $1 alive workers ($2): $(curl -fsS "$coord_url/v1/workers")"
}

prom() { # prom BASEURL FAMILY -> the unlabeled sample's value (0 when absent)
    curl -fsS "$1/metrics?format=prom" | sed -n "s/^$2 \([0-9]*\)\$/\1/p" | grep . || echo 0
}

store="$dir/store"
# Short lease so the kill-phase expiry is quick; workers heartbeat at
# a third of it. -parallel 1 keeps per-round quotas small, so bigger
# grids take several dispatch rounds — the window the mid-sweep join
# and the kill both need.
start coord -store "$store" -parallel 2 -lease-ttl 2s
curl -fsS "$coord_url/healthz" > /dev/null || fail "coordinator healthz unreachable"
curl -fsS "$coord_url/v1/workers" | grep -q '"alive": 0,' || fail "fresh coordinator fleet not empty"

start worker1 -store "$store" -parallel 1 -join "$coord_url"
start worker2 -store "$store" -parallel 1 -join "$coord_url"
alive 2 "registration-only join"

submit() {
    curl -fsS -X POST -H 'Content-Type: application/json' -d "$1" "$2/v1/sweeps" \
        | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p'
}
await() { # await JOBID
    (curl -fsS -N --max-time 300 "$coord_url/v1/jobs/$1/stream" || true) | grep -q '^event: done' \
        || fail "job $1 never finished"
}

# --- phase 2: registration-joined workers compute the grid, bit-identical ---
req='{"apps":["delaunay","MIS"],"schemes":["jigsaw","snuca-lru"],"scale":0.05}'
id=$(submit "$req" "$coord_url")
[ -n "$id" ] || fail "coordinator submit returned no job id"
await "$id"
status=$(curl -fsS "$coord_url/v1/jobs/$id")
printf '%s\n' "$status" | grep -q '"state": "done"' || fail "elastic sweep failed: $status"
printf '%s\n' "$status" | grep -q '"computed": 4' || fail "elastic sweep did not compute 4 cells: $status"
printf '%s\n' "$status" | grep -q '"workers"' || fail "job status has no per-worker split: $status"

# Both joined workers actually computed cells (the grid went through
# the fleet, not local simulation).
w1c=$(prom "$worker1_url" whirld_rows_computed_total)
w2c=$(prom "$worker2_url" whirld_rows_computed_total)
[ "$((w1c + w2c))" -eq 4 ] || fail "workers computed $w1c + $w2c cells, want 4"

# Bit-identity against a single-node run (wall-clock and error columns
# stripped: fields 17-18; field 19 is the deterministic cell key).
curl -fsS "$coord_url/v1/jobs/$id/rows?format=csv" | cut -d, -f1-16,19 > "$dir/fleet.csv"
"$dir/whirlsweep" -apps delaunay,MIS -schemes jigsaw,snuca-lru -scale 0.05 -format csv -q \
    | cut -d, -f1-16,19 > "$dir/direct.csv"
diff "$dir/fleet.csv" "$dir/direct.csv" || fail "fleet rows differ from the single-node run"

# --- phase 3: a worker joining mid-sweep receives cells ---
req2='{"apps":["mcf","lbm","hull","cactus"],"schemes":["jigsaw","snuca-lru"],"scale":0.1}'
id2=$(submit "$req2" "$coord_url")
# Wait for the first row (the sweep is mid-flight), then bring up the
# late joiner. sed quits at the first row, so curl dies on SIGPIPE:
# expected, muted.
(curl -fsS -N --max-time 300 "$coord_url/v1/jobs/$id2/stream" 2>/dev/null || true) \
    | sed '/^event: row/q' > /dev/null
start worker3 -store "$store" -parallel 4 -join "$coord_url"
await "$id2"
status=$(curl -fsS "$coord_url/v1/jobs/$id2")
printf '%s\n' "$status" | grep -q '"state": "done"' || fail "mid-join sweep failed: $status"
printf '%s\n' "$status" | grep -q '"done": 8' || fail "mid-join sweep lost cells: $status"
w3c=$(prom "$worker3_url" whirld_rows_computed_total)
[ "$w3c" -gt 0 ] || fail "mid-sweep joiner computed no cells (rebalance never reached it)"
rebalances=$(prom "$coord_url" whirld_dispatch_rebalances_total)
[ "$rebalances" -gt 0 ] || fail "no rebalance recorded for the mid-sweep join"

# --- phase 4: kill -9 a worker; the lease expires and its cells re-route ---
alive 3 "third worker joined"
req3='{"apps":["mcf","lbm","hull","cactus"],"schemes":["jigsaw","snuca-lru"],"scale":0.1,"seed":7}'
id3=$(submit "$req3" "$coord_url")
(curl -fsS -N --max-time 300 "$coord_url/v1/jobs/$id3/stream" 2>/dev/null || true) \
    | sed '/^event: row/q' > /dev/null
kill -9 "$worker1_pid" 2>/dev/null || true
await "$id3"
status=$(curl -fsS "$coord_url/v1/jobs/$id3")
printf '%s\n' "$status" | grep -q '"state": "done"' || fail "job did not survive the worker kill: $status"
printf '%s\n' "$status" | grep -q '"done": 8' || fail "cells went missing after the worker kill: $status"
rows=$(curl -fsS "$coord_url/v1/jobs/$id3/rows?format=csv" | tail -n +2 | wc -l)
[ "$rows" -eq 8 ] || fail "row grid incomplete after worker kill: $rows of 8"
curl -fsS "$coord_url/v1/jobs/$id3/rows?format=csv" | awk -F, 'NR>1 && $18!=""{bad++} END{exit bad>0}' \
    || fail "error rows present after re-dispatch"
# The killed worker's silence must surface as a lease expiry (worker
# death by missed heartbeats, not just a dropped connection).
alive 2 "killed worker's lease expired"
expired=$(prom "$coord_url" whirld_fleet_leases_expired_total)
[ "$expired" -gt 0 ] || fail "lease expiry not recorded after kill -9"
curl -fsS "$coord_url/v1/workers" | grep -q '"reason": "lease expired"' \
    || fail "roster does not show the lease expiry: $(curl -fsS "$coord_url/v1/workers")"

# --- phase 5: graceful shutdown deregisters (departure, not expiry) ---
kill -TERM "$worker3_pid"
wait "$worker3_pid" || fail "worker3 exited non-zero on SIGTERM"
worker3_pid=
alive 1 "worker3 deregistered on SIGTERM"
departures=$(prom "$coord_url" whirld_fleet_departures_total)
[ "$departures" -gt 0 ] || fail "graceful shutdown did not deregister"

kill -TERM "$coord_pid"
wait "$coord_pid" || fail "coordinator exited non-zero on SIGTERM"
kill -TERM "$worker2_pid"
wait "$worker2_pid" || fail "worker2 exited non-zero on SIGTERM"
coord_pid= worker1_pid= worker2_pid=
trap - EXIT

rm -rf "$dir"
echo "fleet-smoke OK"
