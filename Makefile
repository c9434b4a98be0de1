GO ?= go

.PHONY: all build vet test race fuzz smoke check fmt

all: check

# Each gate step ends by printing its own elapsed seconds: make expands a
# whole recipe before running its first line, so $(shell date +%s) on the
# last line is the time the step started.
build:
	$(GO) build ./...
	@echo "$@: $$(( $$(date +%s) - $(shell date +%s) ))s"

vet:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "vet: staticcheck not installed, skipping"; fi
	@echo "$@: $$(( $$(date +%s) - $(shell date +%s) ))s"

test:
	$(GO) test ./...

# Every test in the module, once, under the race detector. Nothing is
# race-skipped: the allocation pins, golden digests, differentials, soaks
# and chaos gates all run here and nowhere else.
race:
	$(GO) test -race ./...
	@echo "$@: $$(( $$(date +%s) - $(shell date +%s) ))s"

# Short fuzz smoke over the numeric kernels and the decoders: the
# piecewise fitter and the Poisson-binomial distribution must never panic
# or emit non-finite values on adversarial input, the slowdown kernel must
# return its reference's bits for a contender set in any order, the
# request and trace decoders must never panic on arbitrary bytes.
fuzz:
	$(GO) test -run ^$$ -fuzz '^FuzzFitPiecewise$$' -fuzztime 5s ./internal/stats
	$(GO) test -run ^$$ -fuzz '^FuzzPoissonBinomial$$' -fuzztime 5s ./internal/prob
	$(GO) test -run ^$$ -fuzz '^FuzzKernelOrder$$' -fuzztime 5s ./internal/core
	$(GO) test -run ^$$ -fuzz '^FuzzDecodeRequest$$' -fuzztime 5s ./internal/serve
	$(GO) test -run ^$$ -fuzz '^FuzzDecodeBinaryRequest$$' -fuzztime 5s ./internal/serve
	$(GO) test -run ^$$ -fuzz '^FuzzReadTraceHeader$$' -fuzztime 5s ./internal/scenario
	$(GO) test -run ^$$ -fuzz '^FuzzDecodeTraceRecord$$' -fuzztime 5s ./internal/scenario
	@echo "$@: $$(( $$(date +%s) - $(shell date +%s) ))s"

# What no `go test` in this module reaches: the command-line round trips
# and the nested benchmark module.
#  - calibration persistence: write an envelope, verify it, then prove
#    damaged copies are rejected — a truncated file and a payload with one
#    value flipped (valid JSON, so only the checksum can catch it);
#  - loadgen self-serving each target shape: one server, a 3-replica
#    cluster behind the router, two contentiond child processes as remote
#    members, the binary wire with the surface fast path, and a traced
#    2-replica fleet emitting per-stage attribution;
#  - a scenario run recorded to a trace file and replayed from it, every
#    response verified against the recorded one;
#  - an unknown experiment id is refused (before anything is calibrated);
#  - bench/ is its own module, invisible to `go test ./...`: vet and test
#    it here so an export it needs cannot disappear unnoticed.
smoke:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/calibrate -burst 50 -contenders 2 -save "$$tmp/cal.json" && \
	$(GO) run ./cmd/calibrate -check "$$tmp/cal.json" && \
	head -c 120 "$$tmp/cal.json" > "$$tmp/trunc.json" && \
	! $(GO) run ./cmd/calibrate -check "$$tmp/trunc.json" 2>/dev/null && \
	sed 's/1024/1023/' "$$tmp/cal.json" > "$$tmp/rot.json" && \
	! $(GO) run ./cmd/calibrate -check "$$tmp/rot.json" 2>/dev/null && \
	$(GO) run ./cmd/loadgen -duration 1s -conc 4 -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -cluster 3 -duration 1s -conc 4 -warmup 100ms > /dev/null && \
	$(GO) build -o "$$tmp/contentiond" ./cmd/contentiond && \
	$(GO) run ./cmd/loadgen -remote 2 -exec "$$tmp/contentiond" -duration 1s -conc 4 -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -binary -surface -duration 1s -conc 4 -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -cluster 2 -trace-sample 10 -stages -duration 1s -conc 4 -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -scenario bursty -duration 1s -binary -record "$$tmp/run.ctrc" -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -replay "$$tmp/run.ctrc" -warmup 100ms > /dev/null && \
	! $(GO) run ./cmd/experiments -only bogus 2>/dev/null
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	@echo "$@: $$(( $$(date +%s) - $(shell date +%s) ))s"

# The full local gate: everything CI would run, each test once. The
# total is the age of this make process (the recipe shell's parent).
check: build vet race fuzz smoke
	@echo "check: OK, total $$(ps -o etimes= -p $$PPID | tr -d ' ')s"

fmt:
	gofmt -l -w .
