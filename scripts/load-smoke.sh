#!/bin/sh
# load-smoke: end-to-end proof of the whirlload serving-SLO pipeline.
#
#  1. start whirld on an ephemeral port with a tight /v1/results
#     concurrency limit (-inflight results=2) and a fresh store
#  2. warm the store with one small sweep so /v1/results and warm
#     /v1/sweeps resubmits have rows to serve
#  3. whirltool load drives a mixed traffic spec (results reads, jobs
#     polls, warm sweep resubmits) and must pass its throughput floors
#     and p99 SLOs — a breach exits 1 and fails CI
#  4. a second spec overdrives /v1/results far past its limit: the
#     daemon must shed (429 + Retry-After, server.shed counts it) while
#     /healthz and /v1/jobs keep serving
#  5. /metrics must show the per-endpoint latency histograms in the
#     JSON tree and the same counters in ?format=prom
#  6. every non-2xx /v1 body must be the JSON error envelope
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

# --- warm the store: one small sweep, awaited over SSE ---
req='{"apps":["delaunay"],"schemes":["jigsaw"],"scale":0.05}'
id=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/sweeps" \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$id" ] || fail "warmup submit returned no job id"
(curl -fsS -N --max-time 300 "$base/v1/jobs/$id/stream" || true) | grep -q '^event: done' \
    || fail "warmup sweep never finished"

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
