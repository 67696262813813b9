# Development targets. `make ci` is the gate every change must pass:
# vet, gofmt cleanliness, the project's own static-analysis suite
# (cmd/noclint), build, the full test suite under the race detector
# (the synthesis sweep is concurrent by default, so races are
# first-class failures), vet and tests of the benchmark's own module,
# a single-iteration routing-benchmark smoke
# run so a broken benchmark cannot sit unnoticed until the next perf
# pass, a power-state fault-campaign smoke run on the paper's D26
# case study, a survivability smoke run (k=1 synthesis must absorb
# every single-link fault with zero re-routing), a result-cache smoke
# run (second synthesis of an unchanged spec must be a full hit, and a
# miss on an edited spec must stay bit-identical to a fresh run), and
# bounded fuzz runs of the cache decoder, the store's blob framing, the
# spec-to-synthesis boundary (byte-mutated and generated specs) and the
# topology JSON reader.
GO ?= go

.PHONY: artifacts ci vet fmt lint surface build test race bench-module bench bench-analysis bench-smoke bench-all campaign-smoke survive-smoke cache-smoke prune-smoke fuzz-smoke

ci: vet fmt lint surface build race bench-module bench-smoke campaign-smoke survive-smoke cache-smoke prune-smoke fuzz-smoke

# vet also type-checks every package, tests included, for a 32-bit
# (386) and a second 64-bit (arm64) target, so code that only compiles
# where int is 64 bits or on amd64 fails here.
vet:
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# fmt fails when gofmt would rewrite any file (testdata fixtures
# included — they are parsed by the analysis golden tests).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi

# lint runs the determinism/invariant analyzers (maprange, floateq,
# errdrop, wallclock, bannedcall, goroutineleak, scratchcopy,
# sortstability, detflow, poolescape, narrowid) over every package — including
# internal/analysis and cmd/noclint themselves, so the linter stays
# clean on its own code. The scoped analyzers (wallclock, maprange,
# bannedcall) apply to the function set reachable from the engine
# roots, derived from the interprocedural call graph (noclint -why
# explains any site's chain). -unused additionally warns (without
# failing) about //noclint:ignore directives that no longer suppress
# anything — and calls out misplaced ones — so stale suppressions are
# surfaced instead of silently hiding future findings. See DESIGN.md
# "Static analysis layer".
lint:
	$(GO) run ./cmd/noclint -unused ./...

# surface recomputes the engine-surface digest (the source of every
# hot-path function, hashed) and fails when it drifted from
# artifacts/engine-surface.sum without a cache.EngineVersion bump —
# the mechanical stale-cache gate. After an intentional change:
# bump EngineVersion in internal/cache/store.go, then
# `go run ./cmd/noclint -surface update`.
surface:
	$(GO) run ./cmd/noclint -surface check

build:
	$(GO) build ./...

# artifacts regenerates artifacts/: the Fig. 4 DOT and Fig. 5 SVG files
# and nocbench_all.txt, the output of `nocbench -exp all` run from the
# repo root without its closing wall-clock line. cmd/nocbench's
# TestAllOutputPinned holds all three byte for byte.
artifacts:
	$(GO) run ./cmd/nocbench -exp all -out artifacts > artifacts/nocbench_all.txt.tmp
	sed '/^\[all completed in /d' artifacts/nocbench_all.txt.tmp > artifacts/nocbench_all.txt
	rm artifacts/nocbench_all.txt.tmp

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-module vets and tests the repo benchmark, which is a Go module
# of its own (benchmark/, `replace nocvi => ../`): the root `go test
# ./...` skips nested modules, so without this step an engine API change
# that breaks the benchmark would only surface when the benchmark runs.
bench-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# BENCH_LANES picks the -cpu lanes for the benchmark targets, capped at
# the machine's CPU count: measuring a "parallel speedup" on lanes wider
# than the hardware is how the old gomaxprocs=1 records lied. bench2json
# keys every lane separately, so multi-lane runs never collide.
NPROC := $(shell nproc 2>/dev/null || echo 1)
BENCH_LANES := $(shell if [ $(NPROC) -ge 8 ]; then echo 1,2,4,8; \
	elif [ $(NPROC) -ge 4 ]; then echo 1,2,4; \
	elif [ $(NPROC) -ge 2 ]; then echo 1,2; \
	else echo 1; fi)

# bench re-measures the routing fast path and the full synthesis sweep
# across the real -cpu lanes, folding the numbers into
# BENCH_routing.json and BENCH_synthesize.json next to their preserved
# pre-optimization baselines. The d26 fault campaign runs at one
# campaign worker, so it is measured in the default lane only, into
# BENCH_fault.json.
bench:
	$(GO) test -bench=RouteAll -cpu=$(BENCH_LANES) -benchmem -run='^$$' . | $(GO) run ./tools/bench2json -o BENCH_routing.json
	$(GO) test -bench='SynthesizeParallel|SynthesizeCached|SynthesizePrune' -cpu=$(BENCH_LANES) -benchmem -run='^$$' . | $(GO) run ./tools/bench2json -o BENCH_synthesize.json
	$(GO) test -bench=RunCampaign -benchmem -run='^$$' . | $(GO) run ./tools/bench2json -o BENCH_fault.json
	$(GO) test -bench='CallGraph|AnalyzeModule' -benchmem -run='^$$' ./internal/analysis/callgraph ./cmd/noclint | $(GO) run ./tools/bench2json -o BENCH_analysis.json

# bench-analysis re-measures only the static-analysis lane: call-graph
# construction + reachability (BenchmarkCallGraph) and the full
# analyzer pass over the module (BenchmarkAnalyzeModule), folded into
# BENCH_analysis.json so analyzer cost regressions show up in review.
bench-analysis:
	$(GO) test -bench='CallGraph|AnalyzeModule' -benchmem -run='^$$' ./internal/analysis/callgraph ./cmd/noclint | $(GO) run ./tools/bench2json -o BENCH_analysis.json

# bench-smoke keeps the benchmarks runnable and pins the parallel
# efficiency floor on the largest suite, graded by what the runner can
# actually measure: with 4+ CPUs workers=N (N the lane's GOMAXPROCS)
# must be at least 2x workers=1, with 2-3 CPUs at least 1.2x, and
# -require-procs makes a runner that silently drops to one schedulable
# CPU a hard failure instead of a vacuous pass. On a true single-core
# machine no parallel speedup can exist, so the floor is skipped with
# an explicit log line and the benchmark is still run for its
# correctness checks. The floor judges the SynthesizeParallel/
# d48_network/pair lane: each iteration times workers=1 and then
# workers=N back to back from a collected heap, and the lane reports
# the median of the per-pair ratios, so contention that slows one pair
# moves one ratio rather than a whole lane. The lane runs 20 pairs,
# five times over (-count 5), and bench2json judges the median of the
# five. `make bench` still records the separate workers= lanes.
bench-smoke:
	$(GO) test -bench=RouteAll -benchtime=1x -benchmem -run='^$$' .
	@if [ $(NPROC) -ge 4 ]; then floor=2.0; req=4; \
	elif [ $(NPROC) -ge 2 ]; then floor=1.2; req=2; \
	else floor=0; req=0; fi; \
	if [ $$req -eq 0 ]; then \
		echo "bench-smoke: single-CPU runner (nproc=$(NPROC)); parallel-efficiency floor skipped — no parallel speedup is measurable here"; \
		$(GO) test -bench='SynthesizeParallel/d48_network/pair' -cpu=$(BENCH_LANES) -benchtime=20x -count 5 -benchmem -run='^$$' . | $(GO) run ./tools/bench2json -o ''; \
	else \
		$(GO) test -bench='SynthesizeParallel/d48_network/pair' -cpu=$(BENCH_LANES) -benchtime=20x -count 5 -benchmem -run='^$$' . | $(GO) run ./tools/bench2json -o '' -floor $$floor -require-procs $$req; \
	fi

bench-all:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# campaign-smoke runs the power-state fault campaign end-to-end on the
# paper's d26 case study: synthesize, enumerate all power states,
# compose single-link faults under each, and fold the aggregate through
# bench2json — which fails on any shutdown-invariant violation. The
# power-minimal design point carries no link redundancy (0% of link
# faults recoverable by re-routing), so no recoverability floor is set;
# the aggregate is still computed, validated and reported.
campaign-smoke:
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/nocsynth -bench d26_media -campaign -campaign-json $$tmp >/dev/null && \
	$(GO) run ./tools/bench2json -campaign $$tmp -o '' </dev/null; \
	rc=$$?; rm -f $$tmp; exit $$rc

# survive-smoke gates the survivability-k synthesis end-to-end: d26 is
# synthesized with one link-disjoint backup route per flow (-survive 1),
# the power-state fault campaign composes every single-link fault under
# every legal power state, and bench2json -survive-floor 1 fails unless
# every fault was absorbed by a pre-synthesized backup with zero
# re-routing (a single non-recoverable fault is a hard failure).
survive-smoke:
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/nocsynth -bench d26_media -survive 1 -campaign -campaign-json $$tmp >/dev/null && \
	$(GO) run ./tools/bench2json -campaign $$tmp -survive-floor 1 -o '' </dev/null; \
	rc=$$?; rm -f $$tmp; exit $$rc

# cache-smoke gates the content-addressed result cache end-to-end:
#   1. nocsynth twice against one cache dir — the second run of the
#      unchanged spec must report a full hit;
#   2. the cached-vs-fresh identity tests — a miss on an edited spec,
#      run against a store holding the original, must be byte-identical
#      to a fresh run;
#   3. the SynthesizeCached/pair bench lane through bench2json
#      -cache-floor: the full hit must be at least 5x faster than the
#      miss that stored it. Each iteration times a miss and then a hit of
#      the same entry back to back, from a collected heap, and the lane
#      reports the median of the per-pair ratios, so neither contention
#      nor a collection can land on one leg only; the lane runs a fixed
#      100 pairs, five times over (-count 5), and bench2json judges the
#      median of the five.
cache-smoke:
	@dir=$$(mktemp -d); rc=0; \
	$(GO) run ./cmd/nocsynth -bench d26_media -cache-dir $$dir >/dev/null && \
	out=$$($(GO) run ./cmd/nocsynth -bench d26_media -cache-dir $$dir) && \
	{ echo "$$out" | grep -q '^cache: full hit' || \
		{ echo "cache-smoke: second run was not a full hit:"; echo "$$out" | head -2; false; }; } || rc=1; \
	rm -rf $$dir; exit $$rc
	$(GO) test -run 'TestEditedSpecMissIdenticalToFresh|TestSynthesizeCachedIdentityOnSuite' ./internal/cache/
	$(GO) test -bench='SynthesizeCached/pair' -benchtime=100x -count 5 -run='^$$' . | $(GO) run ./tools/bench2json -o '' -cache-floor 5

# prune-smoke gates the branch-and-bound layer end-to-end: the winner
# identity tests (pruned sweep vs -no-prune oracle across worker
# counts), then the SynthesizePrune bench lanes through bench2json
# -prune-floor — the pruned d48 sweep must beat the exhaustive one by
# at least 1.3x with a nonzero pruned fraction. The speedup is
# algorithmic, not parallel, so the floor holds even on a single-CPU
# runner.
prune-smoke:
	$(GO) test -run 'TestSynthesizeOracleIdentity|TestBoundsAdmissibility' ./internal/core/
	$(GO) test -bench=SynthesizePrune -benchtime=3x -run='^$$' . | $(GO) run ./tools/bench2json -o '' -prune-floor 1.3

# fuzz-smoke runs each native fuzz target for a bounded time, one after
# another (go test -fuzz takes one target at a time):
#   - FuzzDecodeResult: bytes read back from the store size the result
#     decoder's slices, so any input must end in an error or a codec
#     fixed point, never a panic;
#   - FuzzDecodeBlob: the store's entry framing must yield a payload
#     matching its checksum, or a miss;
#   - FuzzSpecSynthesize: spec JSON through validation into synthesis
#     must end in an error or a best point the verify sign-off passes.
#   - FuzzSpecgenSynthesize: a generated spec (seed, core and island
#     counts, option bits) through WriteSpec/ReadSpec into synthesis at
#     one and two workers must fail alike or digest equal, with a best
#     point the verify sign-off passes; every input reaches the engine.
#   - FuzzReadTopology: topology JSON read back against its spec must
#     end in an error or a topology that validates, never a panic.
#   - FuzzReplayTrace: trace CSV through ReadCSV into Replay on a D26
#     design must end in an error or a run whose latencies are finite.
#   - FuzzSimConfig: injection scale, duration, SinglePacket and an
#     off-mask through Run on a D26 design must end in an error or a run
#     with finite latencies that sent no more than the packet cap.
# -fuzzminimizetime 50x bounds how long Go's minimizer may spend on
# each newly interesting input (the default is 60s): unbounded, it
# worked on the ~155 KB D26 seeds for most of each 10s run and the exec
# rate fell to 0/sec after about 3s. A crasher still fails the run.
# The committed corpora live in each package's testdata/fuzz; a crasher
# found here is written there and becomes a permanent regression seed.
# Each target fuzzes with a private fuzz cache, made by mktemp -d and
# removed afterwards (the target's exit code is kept), so every run
# starts from the seeds and testdata/fuzz: the shared cache under
# $(go env GOCACHE)/fuzz only grows, and re-running its inputs ate the
# 10s budget. The directory is passed as -test.fuzzcachedir, the flag
# cmd/go itself passes the test binary; it must follow -args, where it
# comes after cmd/go's own and wins (written before the package path,
# it made go test run the root package and fuzz nothing).
fuzz = dir=$$(mktemp -d); \
	$(GO) test -run '^$$' -fuzz '^$(1)$$' -fuzztime 10s -fuzzminimizetime 50x $(2) -args -test.fuzzcachedir=$$dir; \
	rc=$$?; rm -rf $$dir; exit $$rc

fuzz-smoke:
	$(call fuzz,FuzzDecodeResult,./internal/cache/)
	$(call fuzz,FuzzDecodeBlob,./internal/cache/)
	$(call fuzz,FuzzSpecSynthesize,./internal/specio/)
	$(call fuzz,FuzzSpecgenSynthesize,./internal/specio/)
	$(call fuzz,FuzzReadTopology,./internal/specio/)
	$(call fuzz,FuzzReplayTrace,./internal/sim/)
	$(call fuzz,FuzzSimConfig,./internal/sim/)
