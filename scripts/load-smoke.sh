#!/bin/sh
# load-smoke: end-to-end proof of one whirld's serving pipeline and
# its serving SLOs.
#
#  1. start whirld on an ephemeral port with a tight /v1/results
#     concurrency limit (-inflight results=2) and a fresh store
#  2. submit a 4-cell sweep over HTTP and await its SSE stream (4 row
#     events + the final done event); its CSV rows (timing/error
#     columns stripped) must be bit-identical to a direct whirlsweep
#     run. A resubmit is served from the warm store with zero
#     re-simulations, and whirlsweep -store serves the same grid from
#     the daemon's store: the CLI and the daemon share one result
#     universe. The warm store also gives /v1/results and the warm
#     /v1/sweeps resubmits below rows to serve
#  3. whirltool load drives a mixed traffic spec (results reads, jobs
#     polls, warm sweep resubmits) and must pass its throughput floors
#     and p99 SLOs — a breach exits 1 and fails CI
#  4. a second spec overdrives /v1/results far past its limit: the
#     daemon must shed (429 + Retry-After, server.shed counts it) while
#     /healthz and /v1/jobs keep serving
#  5. /metrics must show the per-endpoint latency histograms in the
#     JSON tree and the same counters in ?format=prom
#  6. every non-2xx /v1 body must be the JSON error envelope
#  7. SIGTERM must shut the daemon down gracefully (exit 0)
#
# Invoked by `make load-smoke` (part of `make ci`).
set -eu

GO=${GO:-go}
dir=.load-smoke
rm -rf "$dir" && mkdir -p "$dir"

fail() {
    echo "load-smoke: $*" >&2
    [ -f "$dir/whirld.err" ] && sed 's/^/load-smoke: whirld: /' "$dir/whirld.err" >&2
    exit 1
}

$GO build -o "$dir/whirld" ./cmd/whirld
$GO build -o "$dir/whirltool" ./cmd/whirltool
$GO build -o "$dir/whirlsweep" ./cmd/whirlsweep

# Create the file first: on a loaded host the backgrounded redirect may
# not have created it before the first sed reads it.
: > "$dir/whirld.out"
"$dir/whirld" -addr 127.0.0.1:0 -store "$dir/store" -parallel 2 -inflight results=2,stream=1 \
    > "$dir/whirld.out" 2> "$dir/whirld.err" &
pid=$!
trap 'kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null' EXIT

addr=
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^whirld: listening on //p' "$dir/whirld.out")
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || fail "whirld died during startup"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$addr" ] || fail "whirld never reported its listen address"
base="http://$addr"

curl -fsS "$base/healthz" > /dev/null || fail "healthz unreachable"

# --- a sweep over HTTP, bit-identical to the CLI, then served warm ---
req='{"apps":["delaunay","MIS"],"schemes":["jigsaw","snuca-lru"],"scale":0.05}'
submit() {
    curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/sweeps" \
        | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p'
}

# Cold run: submit, then follow the SSE stream to completion.
id=$(submit)
[ -n "$id" ] || fail "submit returned no job id"
stream=$( (curl -fsS -N --max-time 300 "$base/v1/jobs/$id/stream" || true) | sed '/^event: done/q')
rows=$(printf '%s\n' "$stream" | grep -c '^event: row') || true
[ "$rows" -eq 4 ] || fail "SSE stream delivered $rows row events, want 4"
printf '%s\n' "$stream" | grep -q '^event: done' || fail "SSE stream never sent done"

# The HTTP-computed grid must be bit-identical to the direct CLI run
# (wall-clock and error columns stripped: fields 17-18; field 19 is
# the deterministic cell key).
curl -fsS "$base/v1/jobs/$id/rows?format=csv" | cut -d, -f1-16,19 > "$dir/http.csv"
"$dir/whirlsweep" -apps delaunay,MIS -schemes jigsaw,snuca-lru -scale 0.05 -format csv -q \
    | cut -d, -f1-16,19 > "$dir/direct.csv"
diff "$dir/http.csv" "$dir/direct.csv" || fail "HTTP rows differ from the direct whirlsweep run"

# Warm resubmit: all 4 cells served from the store, zero re-simulations.
id=$(submit)
(curl -fsS -N --max-time 300 "$base/v1/jobs/$id/stream" || true) | grep -q '^event: done' \
    || fail "resubmitted job never finished"
status=$(curl -fsS "$base/v1/jobs/$id")
printf '%s\n' "$status" | grep -q '"served": 4' || fail "warm resubmit did not serve 4 rows: $status"
printf '%s\n' "$status" | grep -q '"computed": 0' || fail "warm resubmit re-simulated cells: $status"

# The CLI reads the same universe: whirlsweep -store serves everything.
"$dir/whirlsweep" -apps delaunay,MIS -schemes jigsaw,snuca-lru -scale 0.05 -format csv \
    -store "$dir/store" -o /dev/null 2> "$dir/sweep.err" \
    || fail "whirlsweep -store run failed"
grep -q 'results: 4 served from' "$dir/sweep.err" \
    || fail "whirlsweep -store did not serve from the daemon's store: $(cat "$dir/sweep.err")"

# --- mixed traffic against the warm daemon: floors + SLOs must hold ---
# The floors are deliberately conservative (shared CI runners): the
# point is that the gate exists and a grossly regressed server fails it.
cat > "$dir/traffic.json" <<'EOF'
{
  "name": "load-smoke",
  "duration_s": 3,
  "seed": 42,
  "clients": [
    {"id": "readers", "op": "results", "rate": 120, "concurrency": 4,
     "arrival": "poisson", "params": {"app": "delaunay"},
     "slo": {"p99_ms": 500}, "min_rps": 40},
    {"id": "pollers", "op": "jobs", "rate": 40, "concurrency": 2,
     "arrival": "bursty", "burst": {"size": 5},
     "slo": {"p99_ms": 500}, "min_rps": 15},
    {"id": "resubmits", "op": "sweep", "rate": 2, "concurrency": 2,
     "arrival": "constant", "wait": true,
     "sweep": {"apps": ["delaunay"], "schemes": ["jigsaw"], "scale": 0.05},
     "slo": {"p99_ms": 2000}, "min_rps": 1}
  ]
}
EOF
"$dir/whirltool" load -spec "$dir/traffic.json" -base "$base" \
    || fail "mixed traffic breached its SLOs / floors"

# --- overdrive /v1/results past its 2-slot limit: it must shed while
# --- other endpoints keep serving ---
# The hammer is bursty on purpose: 50 back-to-back requests from 32
# workers spike the endpoint's in-flight count far past its 2-slot
# limit, so shedding is guaranteed — a perfectly paced constant stream
# at the same rate would never overlap on sub-millisecond responses.
cat > "$dir/overdrive.json" <<'EOF'
{
  "name": "overdrive",
  "duration_s": 2,
  "seed": 7,
  "clients": [
    {"id": "hammer", "op": "results", "rate": 1500, "concurrency": 32,
     "arrival": "bursty", "burst": {"size": 50}},
    {"id": "bystander", "op": "jobs", "rate": 30, "concurrency": 2,
     "arrival": "constant", "slo": {"p99_ms": 500}, "min_rps": 10}
  ]
}
EOF
"$dir/whirltool" load -spec "$dir/overdrive.json" -base "$base" -format json -check=false \
    > "$dir/overdrive.out" || fail "overdrive run failed outright"

# The hammer class must have been shed (not errored), and the bystander
# class must have kept its SLO through the storm.
shed=$(sed -n '/"id": "hammer"/,/}/s/.*"shed": \([0-9]*\).*/\1/p' "$dir/overdrive.out" | head -1)
[ -n "$shed" ] && [ "$shed" -gt 0 ] || fail "overdrive shed nothing: $(cat "$dir/overdrive.out")"
if grep -q '"violations"' "$dir/overdrive.out"; then
    fail "bystander class breached during overdrive: $(cat "$dir/overdrive.out")"
fi
curl -fsS "$base/healthz" > /dev/null || fail "healthz unreachable after overdrive"

# --- the shed contract on the wire: park the single stream slot with a
# --- long-running job's SSE feed, then probe — the probe must get
# --- HTTP 429 with Retry-After and the envelope code, deterministically ---
slowreq='{"apps":["delaunay","MIS","mcf"],"schemes":["whirlpool","jigsaw"],"scale":0.3,"seed":99}'
sid=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$slowreq" "$base/v1/sweeps" \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$sid" ] || fail "slow submit returned no job id"
curl -sN --max-time 60 "$base/v1/jobs/$sid/stream" > /dev/null 2>&1 &
parked=$!
sleep 0.5
curl -is "$base/v1/jobs/$sid/stream" > "$dir/probe.out" 2>/dev/null || true
grep -q '^HTTP/1.1 429' "$dir/probe.out" || fail "second stream request was not shed: $(cat "$dir/probe.out")"
grep -qi '^Retry-After:' "$dir/probe.out" || fail "shed 429 lacks Retry-After: $(cat "$dir/probe.out")"
grep -q '"code": *"overloaded"' "$dir/probe.out" || fail "shed 429 body is not the envelope: $(cat "$dir/probe.out")"
curl -fsS -X DELETE "$base/v1/jobs/$sid" > /dev/null || fail "cancel of the slow job failed"
kill "$parked" 2>/dev/null || true
wait "$parked" 2>/dev/null || true

# --- /metrics: histograms in the tree, the same counters in ?format=prom ---
metrics=$(curl -fsS "$base/metrics")
printf '%s' "$metrics" | grep -q '"endpoints"' || fail "/metrics lacks server.endpoints"
printf '%s' "$metrics" | grep -q '"p99_ms"' || fail "/metrics lacks latency histograms"
prom=$(curl -fsS "$base/metrics?format=prom")
shedcount=$(printf '%s\n' "$prom" | sed -n 's/^whirld_shed_total \([0-9]*\)$/\1/p')
[ -n "$shedcount" ] && [ "$shedcount" -gt 0 ] || fail "whirld_shed_total is zero after overdrive"
printf '%s\n' "$prom" | grep -q '^whirld_endpoint_latency_ms{endpoint="results",quantile="0.99"} ' \
    || fail "?format=prom lacks endpoint latency quantiles"

# --- error envelope on every non-2xx /v1 response ---
curl -s "$base/v1/jobs/nope" | grep -q '"code": *"not_found"' \
    || fail "404 body is not the envelope"
curl -s "$base/v1/results?limit=bogus" | grep -q '"code": *"bad_request"' \
    || fail "400 body is not the envelope"
curl -s "$base/metrics?format=flat" | grep -q '"code": *"bad_request"' \
    || fail "?format=flat is not a 400 envelope"

# Graceful shutdown.
kill -TERM "$pid"
wait "$pid" || fail "whirld exited non-zero on SIGTERM"
trap - EXIT

rm -rf "$dir"
echo "load-smoke OK"
