# Local dev and CI invoke the exact same commands: .github/workflows/ci.yml
# runs each prerequisite of `make ci` as its own step, in the same order.
# A target added to one list belongs in the other.

GO ?= go

# Build identity, stamped into every binary's -version output via the
# shared cliutil helper (CI runs these same targets, so release and CI
# builds report the commit they were built from).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X whirlpool/internal/cliutil.buildVersion=$(VERSION)"

.PHONY: build examples test race fuzz vet lint fmt fmt-check bench bench-ab smoke trace-smoke fleet-smoke load-smoke bench-check golden-check ci

build:
	$(GO) build $(LDFLAGS) ./...

# ./... already covers examples/, but an explicit target keeps example
# drift visible as its own CI step.
examples:
	$(GO) build ./examples/...

test:
	$(GO) test ./...

# The concurrency hot spots: the sweep worker pool (same-app batching)
# and the per-app once-cache in the experiments harness, concurrent
# sim.Run calls over shared traces and concurrent mapped-trace cursors
# in the simulator and trace codec, the result store's
# concurrent writers, the daemon's job pool + SSE broadcast, the
# distributed dispatcher's shard fan-out, the fleet registry's
# heartbeat/expiry races, the load generator's worker/collector fan-in,
# and the tracer's concurrent span recording.
race:
	$(GO) test -race -count=1 -timeout 20m ./internal/experiments/... ./internal/sim/ ./internal/trace/ ./internal/results/ ./internal/server/ ./internal/dispatch/ ./internal/fleet/ ./internal/traffic/ ./internal/obs/

# Coverage-guided fuzzing of every Fuzz target that `go test -list`
# finds, package by package, on top of the committed seeds (which
# `go test ./...` already runs): ten seconds for the .wtrc parser and
# cursor (FuzzParseWTRC), five for each of the rest. A new target is
# fuzzed without being listed anywhere. Minimization is capped so a new
# input's shrinking cannot eat the whole budget.
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { f = f " " $$1 } /^ok/ { if (f != "") print $$2 f; f = "" }' | \
	while read -r pkg targets; do \
		for t in $$targets; do \
			d=5s; if [ "$$t" = FuzzParseWTRC ]; then d=10s; fi; \
			echo "fuzz $$pkg $$t $$d"; \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime $$d -fuzzminimizetime 1s "$$pkg" || exit 1; \
		done; \
	done

vet:
	$(GO) vet ./...

# The repo's own analyzers (cmd/whirlvet): determinism of the compute
# path, //whirl:zeroalloc hot-path contracts, envelope-only API errors,
# lowercase_snake log/span keys, and mutex discipline on the
# schemes/workloads/fleet registries. Every analyzer runs on every
# package and any finding fails. See docs/lint.md.
lint:
	$(GO) run ./cmd/whirlvet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# One iteration of every benchmark: catches benchmarks that no longer
# compile or crash, without benchmarking anything for real.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The micro-benchmark regression gate: builds the base revision (BASE,
# default HEAD^) and the working tree once each, runs every benchmark
# on both back to back in six rounds on this machine, writes
# the raw output to base.txt and change.txt (benchstat input), and fails
# when a median ns/op or allocs/op regressed by more than 20% and by
# more than the base's interquartile range. See scripts/bench-ab.sh.
bench-ab:
	sh scripts/bench-ab.sh $(BASE)

# The benchmark under benchmark/ is its own module, so `go test ./...`
# and `go vet ./...` above skip it, yet it imports internal/server and
# internal/apiclient. Vet and test it with the module settings
# benchmark/run.sh builds it with.
BENCH_ENV := GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTOOLCHAIN=local

bench-check:
	$(BENCH_ENV) $(GO) -C benchmark vet ./...
	$(BENCH_ENV) $(GO) -C benchmark test ./...

# The absolute correctness reference: each sweep workload of the
# benchmark, at the default seed, compares every simulated column of its
# grid with the committed rows in benchmark/golden/ and exits 1 on any
# difference. The other gates compare paths with each other; this one
# also catches a change that moves every path the same way.
golden-check:
	bash benchmark/run.sh --workload sweep-cold --seconds 1
	bash benchmark/run.sh --workload sweep-warm --seconds 1
	bash benchmark/run.sh --workload mix16 --seconds 1

# End-to-end CLI smoke: the spec engine, the sweep runner, and the
# error paths CI asserts on (bad flags must exit non-zero).
smoke:
	$(GO) run ./cmd/whirlsim -app delaunay -scheme whirlpool -scale 0.05
	$(GO) run ./cmd/whirlsim -spec specs/phase-shift.json -app phaser -scheme whirlpool -scale 0.05
	$(GO) run ./cmd/whirlsim -spec specs/phase-shift.json -app phaser -scheme jigsaw -scale 0.05
	$(GO) run ./cmd/whirlsim -spec specs/multitenant-kv.json -list | grep -q 'kv-hot (spec file)'
	$(GO) run ./cmd/whirlsim -list | grep -q 'whirlpool (Whirlpool)'
	$(GO) run ./cmd/whirlsim -app delaunay -scheme snuca-lru -chip 6x6:4 -scale 0.05
	$(GO) run ./cmd/whirlsweep -spec specs/multitenant-kv.json -mix kv2-dense -schemes whirlpool -scale 0.05 -q
	$(GO) run ./cmd/whirlsweep -apps delaunay,MIS,mcf -scale 0.05 -format csv -q | grep -q '^delaunay,whirlpool,'
	$(GO) run ./cmd/whirlsweep -spec specs/streaming-mix.json -mix stream-vs-rank -schemes snuca-lru,whirlpool -scale 0.05 -q
	$(GO) run ./cmd/whirlsweep -dump-builtin | diff -q - specs/builtin.json
	$(GO) run ./cmd/whirlbench -fig fig16 -apps 'delaunay, MIS' -scale 0.02 | grep -q '^MIS '
	! $(GO) run ./cmd/whirlsim -scheme bogus -scale 0.05 2>/dev/null
	! $(GO) run ./cmd/whirlsim -spec no-such-file.json 2>/dev/null
	! $(GO) run ./cmd/whirlsim -app nosuchapp -scale 0.05 2>/dev/null
	! $(GO) run ./cmd/whirlsweep -apps nosuchapp -q 2>/dev/null
	! $(GO) run ./cmd/whirlsweep -apps delaunay,delaunay -schemes snuca-lru -scale 0.02 -q 2>/dev/null
	! $(GO) run ./cmd/whirlsim -chip 1x1 -scale 0.05 2>/dev/null
	$(GO) run $(LDFLAGS) ./cmd/whirlsim -version | grep -q '^whirlsim '
	$(GO) run ./cmd/whirlsweep -version | grep -q '^whirlsweep dev'
	$(GO) run ./cmd/whirlbench -version | grep -q '^whirlbench '
	$(GO) run ./cmd/whirltool -version | grep -q '^whirltool '
	$(GO) run ./cmd/whirld -version | grep -q '^whirld '
	$(GO) run $(LDFLAGS) ./cmd/whirlvet -version | grep -q '^whirlvet '
	! $(GO) run ./cmd/whirld -store '' 2>/dev/null
	! $(GO) run ./cmd/whirld -join not-a-url 2>/dev/null
	! $(GO) run ./cmd/whirld -join 8 2>/dev/null
	@echo "smoke OK"

# Record/replay smoke: a trace recorded with `whirltool trace record`
# and replayed through a "trace"-sourced spec app must reproduce the
# direct run bit-for-bit (MPKI and the rest of the report columns), and
# a warm -trace-cache sweep must regenerate zero traces.
trace-smoke:
	rm -rf .trace-smoke && mkdir -p .trace-smoke
	$(GO) run ./cmd/whirltool trace record -app delaunay -scale 0.05 -o .trace-smoke/delaunay.wtrc
	$(GO) run ./cmd/whirltool trace info .trace-smoke/delaunay.wtrc
	$(GO) run ./cmd/whirltool trace cat -n 3 .trace-smoke/delaunay.wtrc >/dev/null
	! $(GO) run ./cmd/whirltool trace cat .trace-smoke/delaunay.wtrc >/dev/full 2>/dev/null
	printf '{"name":"trace-smoke","apps":[{"name":"dt-rec","source":"trace","trace":"delaunay.wtrc"}]}' \
		> .trace-smoke/spec.json
	$(GO) run ./cmd/whirlsim -spec .trace-smoke/spec.json -app dt-rec -scheme jigsaw -scale 0.05 2>/dev/null \
		| awk 'NR==2{print "jigsaw", $$5}' > .trace-smoke/replay.txt
	$(GO) run ./cmd/whirlsim -spec .trace-smoke/spec.json -app dt-rec -scheme snuca-lru -scale 0.05 2>/dev/null \
		| awk 'NR==2{print "snuca", $$5}' >> .trace-smoke/replay.txt
	$(GO) run ./cmd/whirlsim -app delaunay -scheme jigsaw -scale 0.05 \
		| awk 'NR==2{print "jigsaw", $$5}' > .trace-smoke/direct.txt
	$(GO) run ./cmd/whirlsim -app delaunay -scheme snuca-lru -scale 0.05 \
		| awk 'NR==2{print "snuca", $$5}' >> .trace-smoke/direct.txt
	diff .trace-smoke/replay.txt .trace-smoke/direct.txt
	$(GO) run ./cmd/whirlsweep -apps delaunay,MIS -schemes jigsaw -scale 0.05 \
		-trace-cache .trace-smoke/cache -q
	$(GO) run ./cmd/whirlsweep -apps delaunay,MIS -schemes jigsaw -scale 0.05 \
		-trace-cache .trace-smoke/cache -o /dev/null 2>&1 \
		| grep -q 'traces: 0 generated'
	rm -rf .trace-smoke
	@echo "trace-smoke OK"

# Fleet smoke: two workers join a coordinator (-join), all sharing one
# result store; the merged grid must be bit-identical to a single-node
# run and collect as one trace tree (both workers' spans stitched under
# the coordinator's job span, rendered by `whirltool spans`), the
# coordinator's /metrics?format=prom must lint as Prometheus exposition
# and pprof must serve on -debug-addr only. A warm resubmit must
# re-simulate nothing on any node, and a sweep submitted straight to a
# worker must be served from the shared store. A third worker joining
# mid-sweep receives cells, and a worker killed -9 mid-sweep has its
# lease expire and its cells re-route to the survivors. See
# scripts/fleet-smoke.sh.
fleet-smoke:
	GO="$(GO)" sh scripts/fleet-smoke.sh

# Single-daemon smoke: a sweep submitted to whirld over HTTP streams
# its rows over SSE and must be bit-identical to a direct whirlsweep
# run; a warm resubmit and `whirlsweep -store` must both be served from
# the daemon's store. Then whirltool load drives the warm daemon with a
# mixed traffic spec (throughput floors + p99 SLOs fail the run when
# breached), overdrives /v1/results past its concurrency limit and
# asserts it sheds 429 + Retry-After while other endpoints keep
# serving. See scripts/load-smoke.sh.
load-smoke:
	GO="$(GO)" sh scripts/load-smoke.sh

ci: build examples vet lint fmt-check test race fuzz bench bench-check golden-check smoke trace-smoke fleet-smoke load-smoke bench-ab
