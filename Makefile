GO ?= go

# Label stamped into the benchmark snapshot written by `make bench`.
LABEL ?= dev

.PHONY: all build vet test race check bench benchcmp bench-regress bench-smoke fmt fuzz calibration-roundtrip obs-gate serve-gate serve-bench cluster-gate cluster-bench netchaos-gate remote-bench hotpath-gate hotpath-bench trace-gate scenario-gate scenario-bench

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "vet: staticcheck not installed, skipping"; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz smoke over the numeric kernels: the piecewise fitter and
# the Poisson-binomial distribution must never panic or emit non-finite
# values on adversarial input.
fuzz:
	$(GO) test -run ^$$ -fuzz '^FuzzFitPiecewise$$' -fuzztime 5s ./internal/stats
	$(GO) test -run ^$$ -fuzz '^FuzzPoissonBinomial$$' -fuzztime 5s ./internal/prob
	$(GO) test -run ^$$ -fuzz '^FuzzDecodeRequest$$' -fuzztime 5s ./internal/serve
	$(GO) test -run ^$$ -fuzz '^FuzzDecodeBinaryRequest$$' -fuzztime 5s ./internal/serve
	$(GO) test -run ^$$ -fuzz '^FuzzReadTraceHeader$$' -fuzztime 5s ./internal/scenario
	$(GO) test -run ^$$ -fuzz '^FuzzDecodeTraceRecord$$' -fuzztime 5s ./internal/scenario

# Persistence gate: write a calibration envelope, verify it, then prove
# damaged copies are rejected — a truncated file and a payload with one
# value flipped (valid JSON, so only the checksum can catch it).
calibration-roundtrip:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/calibrate -burst 50 -contenders 2 -save "$$tmp/cal.json" && \
	$(GO) run ./cmd/calibrate -check "$$tmp/cal.json" && \
	head -c 120 "$$tmp/cal.json" > "$$tmp/trunc.json" && \
	! $(GO) run ./cmd/calibrate -check "$$tmp/trunc.json" 2>/dev/null && \
	sed 's/1024/1023/' "$$tmp/cal.json" > "$$tmp/rot.json" && \
	! $(GO) run ./cmd/calibrate -check "$$tmp/rot.json" 2>/dev/null && \
	echo "calibration-roundtrip: OK"

# Telemetry gate: the disabled-metrics path must stay allocation-free
# on the warm prediction hot path, and the Prometheus exposition and run
# manifest must match their golden files.
obs-gate:
	$(GO) test -run 'AllocationFree' ./internal/core ./internal/obs
	$(GO) test -run 'TestPrometheusExpositionGolden|TestManifestGolden' ./internal/obs
	@echo "obs-gate: OK"

# Serving gate: the model's property tests, the served-vs-direct
# bit-for-bit differential over 10k randomized requests, the decoder
# fuzz corpus (seeds only — `make fuzz` explores), the race-checked
# soak, and a low-rate loadgen smoke against a self-served instance.
serve-gate:
	$(GO) test -run 'TestProperty' ./internal/prob ./internal/core
	$(GO) test -run 'TestDifferential' ./internal/serve
	$(GO) test -run 'FuzzDecodeRequest' ./internal/serve
	$(GO) test -race -run 'TestSoak' ./internal/serve
	$(GO) run ./cmd/loadgen -duration 1s -conc 4 -warmup 100ms > /dev/null
	@echo "serve-gate: OK"

# Record the serving benchmark snapshot: a closed-loop loadgen run
# against a self-served instance, in the same benchjson format as
# `make bench` so `make benchcmp` can diff serving throughput.
serve-bench:
	$(GO) run ./cmd/loadgen -duration 3s -conc 8 -label $(LABEL) -o BENCH_$(LABEL)_serve.json

# Cluster gate: ring and breaker property tests, the supervisor/router
# behavior battery, the race-checked chaos soak (4 real replicas, 16
# closed-loop workers, seeded kills/stalls/degradations mid-load, ≥99%
# success, fleet self-heals, no goroutine leaks), and a loadgen smoke
# through the affinity router.
cluster-gate:
	$(GO) test -run 'TestRing|TestBreaker' ./internal/cluster
	$(GO) test -run 'TestCluster' ./internal/cluster
	$(GO) test -run 'TestPlanChaos' ./internal/faults
	$(GO) test -race -run 'TestChaos' ./internal/cluster
	$(GO) run ./cmd/loadgen -cluster 3 -duration 1s -conc 4 -warmup 100ms > /dev/null
	@echo "cluster-gate: OK"

# Record the cluster benchmark snapshot: the serve-bench traffic shape
# through a 4-replica fleet behind the affinity router, so batched% and
# throughput are diffable against the single-replica numbers.
cluster-bench:
	$(GO) run ./cmd/loadgen -cluster 4 -duration 3s -conc 8 -label $(LABEL) -o BENCH_$(LABEL)_cluster.json

# Network chaos gate: the seeded net-fault plan and proxy behavior
# battery, the race-checked remote soak (real contentiond child
# processes joined as remote members, each behind a netchaos proxy
# injecting seeded latency/resets/stalls/partitions mid-load — ≥99%
# success, availability never zero, partitioned members suspected and
# readmitted after heal), the membership/failure-detector battery, and
# a loadgen smoke through the remote-member path.
netchaos-gate:
	$(GO) test -run 'TestPlanNetChaos' ./internal/faults
	$(GO) test -race ./internal/netchaos
	$(GO) test -run 'TestParseMembers|TestConfigValidate|TestMembership|TestAddRemote|TestRemoteSuspect|TestClusterClientGone' ./internal/cluster
	$(GO) test -race -run 'TestRemoteChaosGate' ./internal/cluster
	$(GO) test -run 'TestMembersReloadSmoke' ./cmd/contentionlb
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/contentiond" ./cmd/contentiond && \
	$(GO) run ./cmd/loadgen -remote 2 -exec "$$tmp/contentiond" -duration 1s -conc 4 -warmup 100ms > /dev/null
	@echo "netchaos-gate: OK"

# Record the remote-member benchmark snapshot: the serve-bench traffic
# shape through a remote-only router over two contentiond child
# processes — the multi-host transport path (HTTP hops, deadline
# propagation, heartbeats) measured against the in-process numbers.
remote-bench:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/contentiond" ./cmd/contentiond && \
	$(GO) run ./cmd/loadgen -remote 2 -exec "$$tmp/contentiond" -duration 3s -conc 8 -label $(LABEL) -o BENCH_$(LABEL)_remote.json

# Hot-path gate: the slowdown kernel's two contracts (0 allocs on
# never-seen contender sets, the same bits for every permutation of a
# multiset), the surface-vs-DP randomized differential (bit-exact at
# grid nodes, ≤1e-3 relative between them), the staleness and
# invalidation protocol, the zero-allocation pins on surface and
# binary-decode paths, the binary round-trip and fast-path
# differentials, the binary decoder fuzz corpus (seeds only — `make
# fuzz` explores), a binary+surface loadgen smoke, and the simulator's
# own hot path: zero-allocation park/resume, hand-off, compute and send,
# no goroutine or heap left behind by a suite pass, and exhibits
# byte-identical to the digests recorded before the coroutine rewrite.
hotpath-gate:
	$(GO) test -run 'AllocationFree|Permutation' ./internal/core
	$(GO) test -run 'AllocationFree|Leak|GoldenDigest' ./internal/des ./internal/cpu ./internal/link ./internal/experiments
	$(GO) test -run 'TestSurface' ./internal/surface
	$(GO) test -run 'TestBinary|TestFastPath' ./internal/serve
	$(GO) test -run 'FuzzDecodeBinaryRequest' ./internal/serve
	$(GO) run ./cmd/loadgen -binary -surface -duration 1s -conc 4 -warmup 100ms > /dev/null
	@echo "hotpath-gate: OK"

# Record the hot-path benchmark snapshot: the serve-bench traffic shape
# three ways — JSON through the batcher, binary wire through the
# batcher, and binary wire with the precomputed surface fast path — so
# the decode and model-evaluation wins are separately attributable.
hotpath-bench:
	$(GO) run ./cmd/loadgen -duration 3s -conc 8 -label $(LABEL) -o BENCH_$(LABEL)_hotpath.json
	$(GO) run ./cmd/loadgen -binary -duration 3s -conc 8 -label $(LABEL) -o BENCH_$(LABEL)_hotpath.json -append
	$(GO) run ./cmd/loadgen -binary -surface -duration 3s -conc 8 -label $(LABEL) -o BENCH_$(LABEL)_hotpath.json -append

# Observability-plane gate: the trace context / sampler / SLO / quantile
# / exposition-parse batteries, the serve span-tree and binary
# trace-block tests with the unsampled warm-path allocation pin and the
# tracing goroutine-leak check, the race-checked propagation
# differential (balancer + two real replicas must emit ONE connected
# span tree per sampled request), the fleet scrape/merge + /debug/fleet
# battery, the stage-metric regression pin in benchjson, and a traced
# loadgen smoke through a 2-replica fleet emitting per-stage
# attribution metrics.
trace-gate:
	$(GO) test -run 'TestTraceContext|TestSampler|TestNewID|TestSLO|TestHistogramQuantile|TestMetricSnapshotQuantile|TestPrometheus|TestParsePrometheusText|TestMerge' ./internal/obs
	$(GO) test -run 'TestTrace|TestBinaryTraceBlock|TestRequestID|TestUnsampledWarmPathAllocationFree|TestTracingNoGoroutineLeak' ./internal/serve
	$(GO) test -race -run 'TestTracePropagationAcrossFleet|TestFleet|TestLB|TestReadySLODetail' ./internal/cluster
	$(GO) test -run 'TestDiffRegressStageMetrics' ./cmd/benchjson
	$(GO) run ./cmd/loadgen -cluster 2 -trace-sample 10 -stages -duration 1s -conc 4 -warmup 100ms > /dev/null
	@echo "trace-gate: OK"

# Scenario gate: generator properties (rates integrate to their
# configured means, burst duty cycles match the stationary distribution,
# schedules are bit-deterministic per seed), the trace round-trip and
# corruption taxonomy, the race-checked record→replay differentials
# (10k requests bit-identical through a live server, plus the cluster
# variant), the trace fuzz seed corpus, the legacy-pacing regression
# pins, the DES replay driver and a sweep smoke cell, the binary-wire
# router pin, and a loadgen record→replay round trip through a real
# self-served instance.
scenario-gate:
	$(GO) test -run 'TestConstantRate|TestSinusoidIntegratesToMean|TestMarkovBurstDutyCycle|TestFlashCrowdMonotoneRamp|TestScheduleBitDeterministic|TestScheduleShape|TestSpecRoundTrip' ./internal/scenario
	$(GO) test -run 'TestTrace' ./internal/scenario
	$(GO) test -race -run 'TestReplay' ./internal/scenario
	$(GO) test -run 'TestFuzzSeedsPass' ./internal/scenario
	$(GO) test -run 'TestUniformPacerMatchesLegacyTicker|TestOpenLoopDrawOrderUnchanged|TestOverloadMessageUnchanged|TestPaceLoopOrderAndDeadline' ./cmd/loadgen
	$(GO) test -run 'TestScenarioReplayDeterministic|TestScenarioSweepSmokeCell' ./internal/experiments
	$(GO) test -run 'TestRouterBinaryWire' ./internal/cluster
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/loadgen -scenario bursty -duration 1s -binary -record "$$tmp/run.ctrc" -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -replay "$$tmp/run.ctrc" -warmup 100ms > /dev/null
	@echo "scenario-gate: OK"

# Record the scenario benchmark snapshot: the hotpath-bench reference
# shape first (so bench-regress can gate against BENCH_pr8_hotpath),
# then one scenario-paced run per wire tier.
scenario-bench:
	$(GO) run ./cmd/loadgen -binary -surface -duration 3s -conc 8 -label $(LABEL) -o BENCH_$(LABEL)_scenario.json
	$(GO) run ./cmd/loadgen -scenario mixed -duration 3s -label $(LABEL) -o BENCH_$(LABEL)_scenario.json -append
	$(GO) run ./cmd/loadgen -scenario mixed -duration 3s -binary -label $(LABEL) -o BENCH_$(LABEL)_scenario.json -append
	$(GO) run ./cmd/loadgen -scenario mixed -duration 3s -binary -surface -label $(LABEL) -o BENCH_$(LABEL)_scenario.json -append

# The full local gate: everything CI would run.
check: build vet race fuzz calibration-roundtrip obs-gate serve-gate cluster-gate netchaos-gate hotpath-gate trace-gate scenario-gate bench-smoke

# Record a benchmark snapshot: full suite with allocation stats, parsed
# into BENCH_$(LABEL).json for later `make benchcmp` diffs.
bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run ^$$ . \
		| $(GO) run ./cmd/benchjson -label $(LABEL) -o BENCH_$(LABEL).json

# Diff two recorded snapshots: make benchcmp OLD=BENCH_seed.json NEW=BENCH_pr3.json
OLD ?= BENCH_seed.json
NEW ?= BENCH_pr3.json
benchcmp:
	$(GO) run ./cmd/benchjson -diff $(OLD) $(NEW)

# Regression gate over two snapshots: exits non-zero when any cost
# metric (ns/op, B/op, allocs/op, or a *-ms latency percentile) grew by
# more than PCT percent: make bench-regress OLD=... NEW=... PCT=25
PCT ?= 25
bench-regress:
	$(GO) run ./cmd/benchjson -diff -regress $(PCT) $(OLD) $(NEW)

# Cheap gate: one pass of the hot-path microbenchmarks through the
# JSON parser, proving the bench harness itself still works.
bench-smoke:
	$(GO) test -bench 'BenchmarkSlowdownEvaluation|BenchmarkPredictComm' -benchtime 1x -benchmem -run ^$$ . \
		| $(GO) run ./cmd/benchjson -label smoke > /dev/null
	@echo "bench-smoke: OK"

fmt:
	gofmt -l -w .
