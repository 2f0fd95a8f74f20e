#!/bin/sh
# obs-smoke: end-to-end proof of the observability surface.
#
#  1. start a coordinator (with -debug-addr pprof) and two join workers
#  2. submit a sweep that shards across both workers and await it
#  3. fetch GET /v1/jobs/{id}/trace: the distributed sweep must collect
#     as ONE trace tree — a single root, the coordinator's job and
#     dispatch.shard spans, and BOTH workers' cell spans stitched in
#     under the same trace ID, linked by parent span IDs
#  4. render it with `whirltool spans` (the waterfall must mention both
#     workers and the sweep stages)
#  5. lint /metrics?format=prom as valid Prometheus text exposition
#  6. poke the pprof listener and the enriched /healthz
#
# Invoked by `make obs-smoke` (part of `make ci`).
set -eu

GO=${GO:-go}
dir=.obs-smoke
rm -rf "$dir" && mkdir -p "$dir"

fail() {
    echo "obs-smoke: $*" >&2
    for log in coord worker1 worker2; do
        [ -f "$dir/$log.err" ] && sed "s/^/obs-smoke: $log: /" "$dir/$log.err" >&2
    done
    exit 1
}

$GO build -o "$dir/whirld" ./cmd/whirld
$GO build -o "$dir/whirltool" ./cmd/whirltool

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

alive() { # alive N WHAT
    i=0
    while [ $i -lt 100 ]; do
        curl -fsS "$coord_url/v1/workers" | grep -q "\"alive\": $1," && return 0
        sleep 0.1
        i=$((i + 1))
    done
    fail "fleet never reached $1 alive workers ($2)"
}

store="$dir/store"
start coord -store "$store" -parallel 2 -debug-addr 127.0.0.1:0
start worker1 -store "$store" -parallel 1 -join "$coord_url"
start worker2 -store "$store" -parallel 1 -join "$coord_url"
alive 2 "workers joined"

debug_addr=$(sed -n 's/^whirld: debug listening on //p' "$dir/coord.out")
[ -n "$debug_addr" ] || fail "coordinator never reported its debug address"

# --- a sweep across both workers, traced end to end ---
req='{"apps":["delaunay","MIS"],"schemes":["jigsaw","snuca-lru"],"scale":0.05}'
id=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "$coord_url/v1/sweeps" \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$id" ] || fail "submit returned no job id"
(curl -fsS -N --max-time 300 "$coord_url/v1/jobs/$id/stream" || true) | grep -q '^event: done' \
    || fail "job $id never finished"
status=$(curl -fsS "$coord_url/v1/jobs/$id")
printf '%s\n' "$status" | grep -q '"state": "done"' || fail "sweep failed: $status"
printf '%s\n' "$status" | grep -q '"trace_id"' || fail "job status carries no trace_id: $status"

curl -fsS "$coord_url/v1/jobs/$id/trace" > "$dir/trace.jsonl" || fail "trace endpoint failed"
[ -s "$dir/trace.jsonl" ] || fail "trace endpoint returned nothing"

# One tree: exactly one rootless span, every span in one trace.
roots=$(grep -c -v '"parent"' "$dir/trace.jsonl" || true)
[ "$roots" -eq 1 ] || fail "trace has $roots roots, want exactly 1"
traces=$(sed -n 's/.*"trace":"\([0-9a-f]*\)".*/\1/p' "$dir/trace.jsonl" | sort -u | wc -l)
[ "$traces" -eq 1 ] || fail "spans scattered across $traces trace IDs, want 1"

# The coordinator's side of the tree…
grep -q '"name":"job"' "$dir/trace.jsonl" || fail "no job span in trace"
shard_workers=$(grep '"name":"dispatch.shard"' "$dir/trace.jsonl" \
    | sed -n 's/.*"worker":"\([^"]*\)".*/\1/p' | sort -u | wc -l)
[ "$shard_workers" -eq 2 ] || fail "dispatch.shard spans cover $shard_workers workers, want 2"
# …and both workers' stitched-in cell spans (4 cells across 2 workers).
cells=$(grep -c '"name":"sweep.cell"' "$dir/trace.jsonl" || true)
[ "$cells" -eq 4 ] || fail "trace holds $cells sweep.cell spans, want 4"
grep -q '"name":"sim.run"' "$dir/trace.jsonl" || fail "no sim.run spans stitched from workers"

# The waterfall renders and names the stages.
"$dir/whirltool" spans "$dir/trace.jsonl" > "$dir/waterfall.txt" || fail "whirltool spans failed"
for want in job dispatch.shard sweep.cell "critical path"; do
    grep -q "$want" "$dir/waterfall.txt" || fail "waterfall missing $want"
done

# --- Prometheus exposition lints clean ---
curl -fsS "$coord_url/metrics?format=prom" > "$dir/metrics.prom" || fail "prom metrics failed"
"$dir/whirltool" promlint "$dir/metrics.prom" || fail "prom exposition failed lint"
grep -q '^whirld_spans_total' "$dir/metrics.prom" || fail "no span counter in prom metrics"

# --- pprof on its own listener; enriched healthz ---
curl -fsS "http://$debug_addr/debug/pprof/" > /dev/null || fail "pprof index unreachable"
curl -fsS "http://$debug_addr/debug/pprof/cmdline" > /dev/null || fail "pprof cmdline unreachable"
curl -fsS "$coord_url/debug/pprof/" > /dev/null 2>&1 && fail "pprof leaked onto the serving listener"
curl -fsS "$coord_url/healthz" | grep -q '"goroutines"' || fail "healthz has no goroutines gauge"

kill -TERM "$worker1_pid" "$worker2_pid" "$coord_pid"
wait "$worker1_pid" || fail "worker1 exited non-zero"
wait "$worker2_pid" || fail "worker2 exited non-zero"
wait "$coord_pid" || fail "coordinator exited non-zero"
coord_pid= worker1_pid= worker2_pid=
trap - EXIT

rm -rf "$dir"
echo "obs-smoke OK"
