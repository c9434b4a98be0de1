GO ?= go

.PHONY: all build vet deadapi test race fuzz smoke check fmt allocs golden flake

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

# Every exported name, and every unexported function or method, under
# internal/ must have a use in a non-test file of this module or of
# bench/, and every exported field of an exported struct type there a
# write in one (deadapi_test.go: interface methods, the exported methods
# and fields of the types a live façade alias denotes, tagged fields, a
# function's writes to a struct it received by value — its receiver, or
# a Config a constructor defaults — a Default* preset's constant write
# to its own package's type, internal/prob and a short allow-list
# exempt; a stale allow-list entry fails). An export of the root package is live only when a non-test
# file outside it (examples/, cmd/, bench/) names it, or when a live
# root export's signature or type names it, or an exported field of a
# type a live alias denotes has its type: a façade alias nobody outside
# reaches keeps nothing alive.
# Code only tests call lives in those tests' _test.go files; a setting
# only tests set is a constant. Every series name in
# internal/obs/names.go must also have a reader there: a use other than
# the first argument of the call that registers it (an obs.New*
# function or a Registry method), with no allow-list
# (TestEverySeriesHasAReader). A series nothing reads is not kept.
# Every Test, Benchmark or Fuzz function and every make target that
# README.md, DESIGN.md, EXPERIMENTS.md or the verify notes name must
# exist, and every -flag README names must be registered
# (TestDocNamesExist).
deadapi:
	$(GO) test -count=1 -run '^TestNoDeadAPI$$|^TestDeadAPIFixture$$|^TestEverySeriesHasAReader$$|^TestDocNamesExist$$' .
	@echo "$@: $$(( $$(date +%s) - $(shell date +%s) ))s"

test:
	$(GO) test ./...

# Every test in the module, once, under the race detector. Nothing is
# race-skipped: the allocation pins, golden digests, differentials, soaks
# and chaos gates all run here and nowhere else.
race:
	$(GO) test -race ./...
	@echo "$@: $$(( $$(date +%s) - $(shell date +%s) ))s"

# The bit-for-bit pins, once each: the suite's golden digests, a driver
# run alone against All, the parallel pass against the serial one, the
# calibration against its recorded values and Run, and the Action
# contenders against the process loop they replaced. A simulator
# refactor can be checked here in seconds; race runs the same tests, so
# check does not list this step.
golden:
	$(GO) test -count=1 -run '^(TestSuiteGoldenDigest|TestPaperExperimentAloneMatchesAll|TestParallelMatchesSerialByteIdentical)$$' ./internal/experiments
	$(GO) test -count=1 -run '^(TestCalibrationMatchesParent|TestRunRobustSingleRepeatMatchesRun)$$' ./internal/calibrate
	$(GO) test -count=1 -run '^TestContenderMatchesProcessLoop$$' ./internal/workload
	@echo "$@: $$(( $$(date +%s) - $(shell date +%s) ))s"

# The timing tests that run on a virtual clock, 20 times each: the
# breaker (TestBreaker.* includes the router steering around a member
# that fails every predict), the admission and request deadlines, the batch window, the
# health loop and its probe deadline, the supervisor's backoff, a
# member drain's wait for its in-flight requests and the SLO windows. Their clock moves only when the test moves it, so one
# failure in twenty is a race in the code, not a slow machine. Like
# golden, not part of check.
flake:
	$(GO) test -count=20 -run '^(TestAdmissionTimeout|TestAcquireUntil)$$' ./internal/rm
	$(GO) test -count=20 -run '^(TestSLOBreachAndRecovery|TestSLOLatencyBreach|TestTracerVirtualTime)$$' ./internal/obs
	$(GO) test -count=20 -run '^(TestPropagatedDeadlineTightensOnly|TestDeadlineTimerLeavesNoStaleTick|TestCloseStopsWindowTimer|TestRetryAfterOnOverload)$$' ./internal/serve
	$(GO) test -count=20 -run '^(TestBreaker.*|TestRemoteSuspectAndRejoin|TestHungMemberDelaysNoOtherProbe|TestClusterCrashLoopBudget|TestReadySLODetail|TestDrainMemberWaitsOnClusterClock)$$' ./internal/cluster
	@echo "$@: $$(( $$(date +%s) - $(shell date +%s) ))s"

# Every allocation pin in internal/, printing only what each measured
# (the counts its tests log), grouped by package: which rung of the
# allocation ladder moved, without a benchmark run. A pin over its
# ceiling fails the target and prints the failure.
allocs:
	@out=$$($(GO) test -count=1 -run 'Alloc' -v ./internal/... 2>&1); st=$$?; \
	printf '%s\n' "$$out" | awk ' \
		/^ +[A-Za-z0-9_]+_test\.go:[0-9]+: / && /alloc/ { sub(/^ +[A-Za-z0-9_]+_test\.go:[0-9]+: /, "\t"); buf = buf $$0 "\n"; next } \
		/^(ok|FAIL)[ \t]/ && buf != "" { printf "%s\n%s", $$2, buf; buf = "" }'; \
	if [ $$st -ne 0 ]; then printf '%s\n' "$$out" | grep -E -A3 '^ *--- FAIL'; exit $$st; fi

# Short fuzz smoke over the numeric kernels and the decoders: the
# piecewise fitter must never panic or emit non-finite values on
# adversarial input, nor may internal/prob's Poisson-binomial (the
# reference the slowdown kernel's tests hold it to, on no production
# path), the slowdown kernel must return its reference's bits for a
# contender set in any order, the request and trace decoders must never
# panic on arbitrary bytes, the frame reader must refuse every frame that
# breaks the framing and give back the bytes of every one it accepts, the
# hand JSON request codec must give encoding/json's verdict, status and
# query bits on every body (the FuzzDecodeRequest differential; a long run is
# `go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 10m ./internal/serve`),
# and whatever metrics snapshot the fleet scrape's decoder accepts must
# pass its validation, re-encode to JSON that decodes to the same
# snapshot, and render as exposition text.
fuzz:
	$(GO) test -run ^$$ -fuzz '^FuzzFitPiecewise$$' -fuzztime 5s ./internal/stats
	$(GO) test -run ^$$ -fuzz '^FuzzPoissonBinomial$$' -fuzztime 5s ./internal/prob
	$(GO) test -run ^$$ -fuzz '^FuzzKernelOrder$$' -fuzztime 5s ./internal/core
	$(GO) test -run ^$$ -fuzz '^FuzzDecodeRequest$$' -fuzztime 5s ./internal/serve
	$(GO) test -run ^$$ -fuzz '^FuzzDecodeBinaryRequest$$' -fuzztime 5s ./internal/serve
	$(GO) test -run ^$$ -fuzz '^FuzzReadFrame$$' -fuzztime 5s ./internal/serve
	$(GO) test -run ^$$ -fuzz '^FuzzReadTraceHeader$$' -fuzztime 5s ./internal/scenario
	$(GO) test -run ^$$ -fuzz '^FuzzDecodeTraceRecord$$' -fuzztime 5s ./internal/scenario
	$(GO) test -run ^$$ -fuzz '^FuzzDecodeSnapshot$$' -fuzztime 5s ./internal/obs
	@echo "$@: $$(( $$(date +%s) - $(shell date +%s) ))s"

# What no `go test` in this module reaches: the command-line round trips
# and the nested benchmark module.
#  - calibration persistence: write an envelope, verify it, then prove
#    damaged copies are rejected — a truncated file and a payload with one
#    value flipped (valid JSON, so only the checksum can catch it);
#  - loadgen self-serving each target shape: one server (closed and open
#    loop), a 3-replica cluster behind the router, binary bodies through
#    a 2-replica router, two contentiond child processes as remote
#    members, the binary wire with the surface fast path, and a traced
#    2-replica fleet emitting per-stage attribution on each wire (the
#    trace header for JSON, the in-band trace block for binary);
#  - a scenario run recorded to a trace file and replayed from it, every
#    response verified against the recorded one;
#  - contentionlb booted on a free port with -window 0: one JSON predict
#    through it, SIGINT, and its manifest must record the window in
#    force (1ms), not the flag as given, and carry the metrics snapshot,
#    with no other file (no .prom text copy) beside it;
#  - contentiond booted the same way, with no flags: one predict,
#    SIGINT, and its manifest must record the default window (1ms) and
#    carry the metrics snapshot, with no .prom file beside it;
#  - the removed flags are refused: -spill and -heartbeat, and the
#    tuning flags that became constants (contentiond's -max-batch,
#    -max-inflight, -max-queue and -timeout; contentionlb's -max-tries,
#    -retry-budget, -probe, -suspect-after and -timeout), and
#    contentionlb's -hedge, whose hedged second request is gone, and
#    the second metrics listener (-metrics-addr on both daemons) and
#    experiments' -parallel, whose pool -workers sizes. Each is given
#    its old default (or a free port) and a missing file to boot from or
#    an unknown experiment id, so the command exits at once, and only
#    exit status 2 (a flag error) passes;
#  - the fleet scrape across real processes: contentionlb over two
#    contentiond children, scraping every 100ms; after one predict,
#    /debug/fleet must show both members scraped within 5s, as JSON with
#    or without ?format=json;
#  - an unknown experiment id is refused (before anything is calibrated),
#    and one known id writes its manifest, carrying the metrics
#    snapshot, and no .prom file;
#  - no command, example or the façade links internal/prob: it is a test
#    and bench reference, and the slowdown kernel is the one production DP;
#  - bench/ is its own module, invisible to `go test ./...`: vet and test
#    it here so an export it needs cannot disappear unnoticed.
smoke:
	tmp=$$(mktemp -d) && trap 'kill $$lbpid $$dpid $$fpid 2>/dev/null; rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/calibrate -burst 50 -contenders 2 -save "$$tmp/cal.json" && \
	$(GO) run ./cmd/calibrate -check "$$tmp/cal.json" && \
	head -c 120 "$$tmp/cal.json" > "$$tmp/trunc.json" && \
	! $(GO) run ./cmd/calibrate -check "$$tmp/trunc.json" 2>/dev/null && \
	sed 's/1024/1023/' "$$tmp/cal.json" > "$$tmp/rot.json" && \
	! $(GO) run ./cmd/calibrate -check "$$tmp/rot.json" 2>/dev/null && \
	$(GO) run ./cmd/loadgen -duration 1s -conc 4 -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -mode open -rate 500 -duration 1s -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -cluster 3 -duration 1s -conc 4 -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -cluster 2 -binary -duration 1s -conc 4 -warmup 100ms > /dev/null && \
	$(GO) build -o "$$tmp/contentiond" ./cmd/contentiond && \
	$(GO) run ./cmd/loadgen -remote 2 -exec "$$tmp/contentiond" -duration 1s -conc 4 -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -binary -surface -duration 1s -conc 4 -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -cluster 2 -trace-sample 10 -stages -duration 1s -conc 4 -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -cluster 2 -binary -trace-sample 10 -stages -duration 1s -conc 4 -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -scenario bursty -duration 1s -binary -record "$$tmp/run.ctrc" -warmup 100ms > /dev/null && \
	$(GO) run ./cmd/loadgen -replay "$$tmp/run.ctrc" -warmup 100ms > /dev/null && \
	$(GO) build -o "$$tmp/contentionlb" ./cmd/contentionlb && \
	{ "$$tmp/contentionlb" -addr 127.0.0.1:0 -replicas 2 -window 0 -run-report "$$tmp/lb.json" 2> "$$tmp/lb.log" & } && \
	lbpid=$$! && \
	for i in $$(seq 100); do grep -q ' on http://' "$$tmp/lb.log" && break; sleep 0.1; done && \
	lbaddr=$$(sed -n 's|^contentionlb on http://\([^ ]*\) .*|\1|p' "$$tmp/lb.log") && \
	curl -sSf -H 'Content-Type: application/json' \
		-d '{"kind":"comp","dcomp":1,"contenders":[{"comm_fraction":0.3,"msg_words":100}]}' \
		"http://$$lbaddr/v1/predict" > /dev/null && \
	kill -INT $$lbpid && wait $$lbpid && lbpid= && \
	grep -q '"window": *"1ms"' "$$tmp/lb.json" && \
	grep -q '"metrics"' "$$tmp/lb.json" && test ! -e "$$tmp/lb.prom" && \
	{ "$$tmp/contentiond" -addr 127.0.0.1:0 -run-report "$$tmp/d.json" 2> "$$tmp/d.log" & } && \
	dpid=$$! && \
	for i in $$(seq 100); do grep -q ' on http://' "$$tmp/d.log" && break; sleep 0.1; done && \
	daddr=$$(sed -n 's|^contentiond on http://\([^ ]*\) .*|\1|p' "$$tmp/d.log") && \
	curl -sSf -H 'Content-Type: application/json' \
		-d '{"kind":"comp","dcomp":1,"contenders":[{"comm_fraction":0.3,"msg_words":100}]}' \
		"http://$$daddr/v1/predict" > /dev/null && \
	kill -INT $$dpid && wait $$dpid && dpid= && \
	grep -q '"window": *"1ms"' "$$tmp/d.json" && \
	grep -q '"metrics"' "$$tmp/d.json" && test ! -e "$$tmp/d.prom" && \
	{ "$$tmp/contentionlb" -exec "$$tmp/contentiond" -replicas 2 -fleet-scrape 100ms -addr 127.0.0.1:0 2> "$$tmp/f.log" & } && \
	fpid=$$! && \
	for i in $$(seq 100); do grep -q ' on http://' "$$tmp/f.log" && break; sleep 0.1; done && \
	faddr=$$(sed -n 's|^contentionlb on http://\([^ ]*\) .*|\1|p' "$$tmp/f.log") && \
	curl -sSf -H 'Content-Type: application/json' \
		-d '{"kind":"comp","dcomp":1,"contenders":[{"comm_fraction":0.3,"msg_words":100}]}' \
		"http://$$faddr/v1/predict" > /dev/null && \
	for i in $$(seq 50); do curl -sSf "http://$$faddr/debug/fleet?format=json" | grep -q '"scraped_members": *2' && break; sleep 0.1; done && \
	curl -sSf "http://$$faddr/debug/fleet?format=json" | grep -q '"scraped_members": *2' && \
	curl -sSf "http://$$faddr/debug/fleet" | grep -q '"scraped_members": *2' && \
	kill -INT $$fpid && wait $$fpid && fpid= && \
	! "$$tmp/contentionlb" -spill 1 2>/dev/null && \
	! "$$tmp/contentionlb" -heartbeat 1s 2>/dev/null && \
	for f in 'max-batch 256' 'max-inflight 1024' 'max-queue 4096' 'timeout 2s' 'metrics-addr 127.0.0.1:0'; do \
		"$$tmp/contentiond" -cal "$$tmp/none.json" -$$f 2>/dev/null; test $$? -eq 2 || exit 1; done && \
	for f in 'max-tries 3' 'retry-budget 0.2' 'probe 250ms' 'suspect-after 4' 'timeout 2s' 'hedge 5ms' 'metrics-addr 127.0.0.1:0'; do \
		"$$tmp/contentionlb" -members "$$tmp/none.json" -$$f 2>/dev/null; test $$? -eq 2 || exit 1; done && \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments && \
	{ "$$tmp/experiments" -only bogus 2>/dev/null; test $$? -eq 1; } && \
	{ "$$tmp/experiments" -only bogus -parallel=false 2>/dev/null; test $$? -eq 2; } && \
	"$$tmp/experiments" -only table3 -run-report "$$tmp/x.json" > /dev/null 2>&1 && \
	grep -q '"metrics"' "$$tmp/x.json" && test ! -e "$$tmp/x.prom" && \
	! $(GO) list -deps ./cmd/... ./examples/... . | grep -q internal/prob
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	@echo "$@: $$(( $$(date +%s) - $(shell date +%s) ))s"

# The full local gate: everything CI would run, each test once. The
# total is the age of this make process (the recipe shell's parent).
check: build vet deadapi race fuzz smoke
	@echo "check: OK, total $$(ps -o etimes= -p $$PPID | tr -d ' ')s"

fmt:
	gofmt -l -w .
