# Development targets; `make check` is the CI gate
# (.github/workflows/ci.yml runs the same sequence).

GO ?= go

.PHONY: fmt-check unused-check build vet test race check bench bench-vm bench-pipeline eval serve eval-serve eval-json fuzz loadgen smoke fleet fleet-smoke trace-smoke flights examples-check

# fmt-check fails if any file is not gofmt-formatted.
fmt-check:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the whole suite under the race detector, including the
# parallel Memo/MemoTable/Sharded tests.
race:
	$(GO) test -race ./...

# unused-check fails if a function under internal/ is named only by
# tests (scripts/unused_allow.txt lists the ones kept on purpose).
unused-check:
	bash scripts/unused_check.sh

check: fmt-check build vet race unused-check

bench:
	$(GO) test -run=NONE -bench=. -benchmem .

# bench-vm runs the VM micro-benchmark: one suite program per family
# (G721, MPEG2, GNUGO, RASTA) at scale-8 inputs, reporting ns/op,
# allocs/op and simulated Mcycles/s.
bench-vm:
	$(GO) test -run=NONE -bench=BenchmarkVM -benchmem ./internal/interp/

# bench-pipeline runs core.Run end to end on one suite program (GNUGO)
# at scale-8 inputs, at O0, O3 and O0 with dependence keys, reporting
# ns/op and allocs/op; then the watched frequency run against a plain
# run of each core program at the same settings (BenchmarkWatchedRun),
# reporting watched/plain.
bench-pipeline:
	$(GO) test -run=NONE -bench=BenchmarkCoreRun -benchmem ./internal/core/
	$(GO) test -run=NONE -bench=BenchmarkWatchedRun -benchmem ./internal/core/

# examples-check runs the deterministic examples and diffs each one's
# output against examples/testdata/<name>.out (-update rewrites them:
# bash scripts/examples_check.sh -update).
examples-check:
	bash scripts/examples_check.sh

# eval regenerates every table and figure of the paper plus the ablations
# and the concurrent-runtime sweep.
eval:
	$(GO) run ./cmd/crcbench

# eval-json also writes the results + decision ledgers as JSON
# (BENCH_<date>.json).
eval-json:
	$(GO) run ./cmd/crcbench -json BENCH_$$(date +%Y%m%d).json

# eval-serve runs the evaluation with live /metrics, /decisions and
# /debug/pprof at localhost:8344.
eval-serve:
	$(GO) run ./cmd/crcbench serve -scale 8

# serve starts the networked reuse-cache tier (cache on :8345, metrics
# and the governor's decision ledger on :8346).
serve:
	$(GO) run ./cmd/crcserve

# loadgen hammers a running crcserve with a modeled fleet and prints
# throughput, RTT percentiles and governor decisions.
loadgen:
	$(GO) run ./cmd/crcserve loadgen

# fuzz exercises the wire codec's decoder against corrupt frames, the
# profile snapshot loader against corrupt JSON, the crcserve snapshot
# restore against corrupt dumps and the decision-ledger parser against
# corrupt ledgers.
fuzz:
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=20s ./internal/wire/
	$(GO) test -fuzz=FuzzLoadSnapshot -fuzztime=10s ./internal/profile/
	$(GO) test -fuzz=FuzzReadSnapshot -fuzztime=10s ./internal/reused/
	$(GO) test -run=FuzzParseLedger -fuzz=FuzzParseLedger -fuzztime=10s ./internal/core/

# smoke is the CI loadgen smoke test: boot crcserve, drive 2s of real
# traffic, require nonzero shared hits and a clean SIGTERM drain — all
# under the race detector.
smoke:
	$(GO) test -race -count=1 -run 'TestLoadgenSmoke|TestCrcserve' -v ./cmd/crcserve/

# trace-smoke is the CI tracing smoke: loadgen with -trace 1 against an
# in-process server must stitch client roots to server spans, serve them
# at /traces, and the integration test must see every tier's span — all
# under the race detector.
trace-smoke:
	$(GO) test -race -count=1 -run 'TestTraceSmoke|TestTraceStitchesAcrossTiers|TestTraceStitchesTieredDepMemo' -v . ./cmd/crcserve/

# fleet runs the distributed-tier demo: a 3-node in-process crcserve
# ring, replicated PUTs, a mid-run node kill, and a warm restart from
# the victim's drain-time snapshot.
fleet:
	$(GO) run ./cmd/crcbench fleet

# fleet-smoke is the CI failover smoke: kill-one-node with zero failed
# Do calls, single-node restart recovery, a server-answered error that
# marks no node down, redial-after-close, ring balance, snapshot
# round-trips — all under the race detector.
fleet-smoke:
	$(GO) test -race -count=1 -run 'TestRingFailover|TestRingOfOne|TestRingOfOneRecoversAfterRestart|TestRingProtocolErrorSurfaces|TestRedialAfterCloseLeaksNoClient|TestRingBalance|TestFleetDemo|TestSnapshot|TestShutdownWritesFinalSnapshot' -v . ./cmd/crcbench/ ./internal/reused/

# flights repeats every singleflight and leader-panic test of the
# reuse runtime (Memoized, TieredMemo, DepMemo, TieredDepMemo and their
# oracles) 20 times under the race detector: these paths park and wake
# goroutines, so one pass proves little.
FLIGHT_TESTS = ^(TestMemoSingleflight|TestMemoSingleflightDistinctKeys|TestMemoizedPanicReleasesKey|TestTieredMemoSingleflight|TestTieredPanicPropagatesAndFollowersRetry|TestTieredMemoFollowersSkipLeaderPut|TestDepMemoSingleflight|TestDepMemoSingleflightPanic|TestTieredDepMemoSingleflight|TestTieredDepMemoConcurrentGhosts|TestDepMemoOracle|TestTieredMemoOracle|TestTieredDepMemoOracle)$$

flights:
	$(GO) test -race -count=20 -run '$(FLIGHT_TESTS)' . ./internal/reused/
