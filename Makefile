GO ?= go

# bench-record / bench-diff settings: the benchrunner harness (BENCH_3).
BENCH_ITERS ?= 10
BENCH_OUT ?= BENCH_3.json
BENCH_BASELINE ?= BENCH_3.json
BENCH_THRESHOLD ?= 10
BENCH_REPORT ?= bench-diff-report.txt

.PHONY: build test race bench bench-record bench-diff check golden vet fmt all

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Each lane engine is single-threaded by design, but the lane-set barrier
# drives them from a worker pool, telemetry's HTTP exposition reads
# recorder state from handler goroutines, experiment sweeps fan
# simulations across workers, and the resilience layer (journal, retry,
# fault injector) is exercised concurrently by the server suites — keep
# the hot paths, their locking, and the run memo honest under the
# race detector.
race:
	$(GO) test -race ./internal/sim/... ./internal/telemetry/... ./internal/core/... ./internal/experiment/... ./internal/api/... ./internal/session/... ./internal/server/... ./internal/client/... ./internal/policy/... ./internal/resil/...

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/telemetry/...

# bench-record re-measures the named benchrunner workloads (Table 1
# canary, fig9-13 cold/warm, ext-chaos, rmserved round-trip, session
# fan-out) and rewrites $(BENCH_OUT); run it after an intentional perf
# change to move the committed baseline.
bench-record:
	$(GO) run ./cmd/benchrunner -iterations $(BENCH_ITERS) -out $(BENCH_OUT)

# bench-diff is the regression gate: record a fresh snapshot, compare it
# against the last committed $(BENCH_BASELINE), and exit non-zero when a
# gated workload's best-of-N wall time regressed past $(BENCH_THRESHOLD)%.
# The report (including measured pprof CPU+heap overhead per workload)
# lands in $(BENCH_REPORT).
bench-diff:
	@tmp=$$(mktemp /tmp/bench3.XXXXXX.json); \
	$(GO) run ./cmd/benchrunner -iterations $(BENCH_ITERS) -out $$tmp || { rm -f $$tmp; exit 1; }; \
	$(GO) run ./cmd/benchrunner -diff -baseline $(BENCH_BASELINE) -candidate $$tmp \
		-threshold $(BENCH_THRESHOLD) -report $(BENCH_REPORT); \
	status=$$?; rm -f $$tmp; exit $$status

# golden re-runs the determinism harness; use UPDATE=1 after an
# intentional model change to regenerate the snapshots.
golden:
	$(GO) test ./internal/experiment -run Golden $(if $(UPDATE),-update)

# check is the full pre-merge gate: build, vet, all tests, and the
# race-enabled packages.
check: build vet test race

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .
