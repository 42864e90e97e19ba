GO ?= go
BENCHTIME ?= 3x
# Runs per benchmark in bench-json: benchjson stores the median and the
# quartile band, and bench-diff flags only moves outside the band.
COUNT ?= 5
# Number of the benchmark snapshot bench-json writes (BENCH_$(BENCH).json);
# bench-diff compares it with the one before.
BENCH ?= 11
BENCH_PREV := $(shell expr $(BENCH) - 1)

.PHONY: ci fmt vet test test-determinism chaos bench bench-json bench-diff bench-file bench-smoke fuzz-smoke build

ci: fmt vet test test-determinism

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./... -race

# The fault-injection suite under the race detector: seeded fault
# models (netem), crash/loss switch faults (switchsim), reverse-plan
# safety (core/verify/explore), the controller's abort→verified-
# rollback path in both dispatch modes including the chaos soak, and
# the crash-restart sweeps (journal torn-tail recovery plus the engine
# killed at every dispatch boundary).
chaos:
	$(GO) test -race -count=1 -run 'Fault|Chaos|Crash|Rollback|Reverse|Abort|VirtualTime' \
		./internal/netem ./internal/switchsim ./internal/core \
		./internal/verify ./internal/explore ./internal/controller \
		./internal/journal
	$(GO) test -run '^$$' -bench '^BenchmarkE15Soak$$' -benchtime=1x .

bench:
	$(GO) test -bench=. -benchtime=10x -run '^$$' .

# Same seed => same explorer verdicts and event logs; -count=2 defeats
# test caching so the explorer-determinism tests actually run twice.
# The second pass runs under the race detector: the parallel explorer
# (Workers > 1) must stay bit-identical and race-free.
test-determinism:
	$(GO) test -run Explore -count=2 ./...
	$(GO) test -run Explore -count=2 -race ./...

# Machine-readable benchmark trajectory: run every benchmark COUNT
# times with -benchmem and emit BENCH_$(BENCH).json (name -> median
# ns/op with its quartile band, allocs/op, domain metrics) for future
# changes to diff against. No pipe on the `go test`
# line: a benchmark failure must fail the target, not vanish into
# tee's exit status (bench.out is left behind for debugging).
bench-json:
	$(GO) test -bench . -benchmem -benchtime=$(BENCHTIME) -count=$(COUNT) -run '^$$' ./... > bench.out
	@cat bench.out
	$(GO) run ./cmd/benchjson -out BENCH_$(BENCH).json < bench.out
	@rm -f bench.out
	@echo "wrote BENCH_$(BENCH).json"

# Perf trajectory between the previous snapshot and this one:
# per-benchmark ns/op and allocs/op movement. Informational (CI runs
# it non-gating); add -fail-on-regress locally to gate.
bench-diff:
	$(GO) run ./cmd/benchjson -diff BENCH_$(BENCH_PREV).json BENCH_$(BENCH).json

# The snapshot file bench-json writes (CI uploads it).
bench-file:
	@echo BENCH_$(BENCH).json

# One iteration of every benchmark in the repo: catches benchmark rot
# without paying for a measurement run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# Ten seconds of coverage-guided fuzzing per fuzz target: the OpenFlow
# wire decoder, the explorer's trace replay/minimization, the plan
# wire codec's decode→encode identity, the partition codec that
# ships per-switch plan slices to the decentralized agents, and the
# CEGIS synthesizer's validate/round-trip invariant on random
# instances, plus the job journal's replay: arbitrary bytes must
# replay to the longest valid record prefix and never panic.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime=10s ./internal/openflow
	$(GO) test -run '^$$' -fuzz '^FuzzExploreTrace$$' -fuzztime=10s ./internal/explore
	$(GO) test -run '^$$' -fuzz '^FuzzPlanRoundTrip$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionRoundTrip$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSynthRefine$$' -fuzztime=10s ./internal/synth
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime=10s ./internal/journal
