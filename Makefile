GO ?= go

.PHONY: ci build vet fmt test test-race fuzz-smoke fuzz-native overhead bench bench-parallel bench-mem bench-explain bench-queries bench-snapshot bench-planner bench-qtrace bench-smoke bench-baseline bench-check lint-metrics experiments

# bench-check runs every gated experiment once, on all ten workloads, with
# the hard checks of the one-workload smoke targets (bench-mem,
# bench-explain, bench-queries, bench-snapshot, bench-qtrace), so ci runs
# none of those. bench-planner stays: its median floors on li alone are
# stricter for li than bench-check's ten-workload medians.
ci: build vet fmt lint-metrics test test-race fuzz-smoke bench-planner bench-smoke overhead bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints nonconforming files; fail if it prints anything.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Race detection over the concurrent paths: the pipelined OPT build, the
# batched slicers, the QueryEngine, the root façade, and the query
# flight recorder. The second run repeats the tests that take kernel
# states from one graph's free list on many goroutines at once, and the
# trace.Async hand-off, the one concurrency inside a graph build.
test-race:
	$(GO) test -race . ./internal/slicing/... ./internal/trace/... ./internal/telemetry/...
	$(GO) test -race -count=10 -run 'Hammer|CursorTables|ConcurrentSlice|Async|ParallelReplay' ./internal/slicing/batch/ ./internal/slicing/fp/ ./internal/slicing/opt/ ./internal/trace/

# Differential smoke gate: 500 generated programs, every sampled
# criterion sliced through the full configuration matrix and compared
# against the brute-force oracle. Deterministic: any failure prints the
# exact replay command (see docs/TESTING.md). -witness additionally
# replays each OPT query observed and checks every dependence-path
# witness hop against the oracle's dynamic dependences (docs/EXPLAIN.md).
fuzz-smoke:
	$(GO) run ./cmd/fuzzgen -seed 1 -n 500 -witness

# Coverage-guided native fuzzing, a short burst per target. Each -fuzz
# pattern is anchored so that it selects exactly one target. Unbounded
# sessions: go test -fuzz '^FuzzX$$' -fuzztime 10m <pkg>.
fuzz-native:
	$(GO) test -fuzz '^FuzzSlicerEquivalence$$' -fuzztime 10s ./internal/fuzzgen/
	$(GO) test -fuzz '^FuzzGeneratedEquivalence$$' -fuzztime 10s ./internal/fuzzgen/
	$(GO) test -fuzz '^FuzzTraceReader$$' -fuzztime 10s ./internal/trace/
	$(GO) test -fuzz '^FuzzDecodeSegments$$' -fuzztime 10s ./internal/trace/
	$(GO) test -fuzz '^FuzzLabelsFindRoundTrip$$' -fuzztime 10s ./internal/slicing/opt/
	$(GO) test -fuzz '^FuzzDecodeList$$' -fuzztime 10s ./internal/slicing/labelblock/
	$(GO) test -fuzz '^FuzzSnapshotLoad$$' -fuzztime 10s ./internal/slicing/snapshot/
	$(GO) test -fuzz '^FuzzSnapshotRead$$' -fuzztime 10s ./internal/slicing/snapshot/

# Guard: a disabled telemetry registry may cost at most 5% over none.
overhead:
	$(GO) test -run TestOverhead -bench BenchmarkTelemetryOverhead -benchtime 5x .

bench:
	$(GO) test -bench . -benchmem .

# Batching speedups: one SliceAll over the 25 criteria vs a per-criterion
# loop, on OPT and LP. RunParallel fails the target if the batch and the
# loop disagree on a slice. The report goes to a temporary directory;
# `make bench-baseline` regenerates the checked-in BENCH_parallel.json.
bench-parallel:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/experiments -exp parallel -out $$dir; \
	st=$$?; rm -rf $$dir; exit $$st

# Memory layout: FP and OPT labels as delta-varint blocks against the
# flat-pair size model (16 B a pair, plus 4 B for FP's aux column).
# RunMemory fails the target if OPT's compact label bytes exceed 0.5x the
# model or any slice differs from LP's. The report goes to a temporary
# directory; `make bench-baseline` regenerates the checked-in
# BENCH_memory.json.
bench-mem:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/experiments -exp memory -out $$dir; \
	st=$$?; rm -rf $$dir; exit $$st

# Observed-query breakdown: every criterion explained on FP/OPT/LP,
# explicit-vs-inferred edge attribution. RunExplain fails the target if
# any workload's OPT traversal reports zero inferred edges (the
# optimizations would not be exercised). The report goes to a temporary
# directory; `make bench-baseline` regenerates the checked-in
# BENCH_explain.json.
bench-explain:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/experiments -exp explain -out $$dir; \
	st=$$?; rm -rf $$dir; exit $$st

# Query flight-recorder smoke: replay the interactive query pattern on
# one small workload with the audit log attached. RunQueries fails the
# target if the log ends up empty or any record is malformed (missing
# ID, unknown backend/kind, implausible latency, no cache hits).
bench-queries:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/experiments -exp queries -workload li -out $$dir; \
	st=$$?; rm -rf $$dir; exit $$st

# Persistent-snapshot smoke: save FP+OPT graph images for one small
# workload, load them back, and compare against the trace-replay build.
# RunSnapshot fails the target if any loaded graph answers a criterion
# differently from the graphs it was saved from, or if loading is not at
# least 5x faster than rebuilding from the trace (see PERFORMANCE.md).
bench-snapshot:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/experiments -exp snapshot -workload li -out $$dir; \
	st=$$?; rm -rf $$dir; exit $$st

# Causal-tracing smoke: replay the interactive query pattern on one
# small workload with the per-query tracer attached. RunQtrace fails
# the target if the tail-based sampler's retained set diverges from the
# deterministic 1-in-N prediction, any retained span tree is malformed,
# or any traced query errors.
bench-qtrace:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/experiments -exp qtrace -workload li -out $$dir; \
	st=$$?; rm -rf $$dir; exit $$st

# End-to-end benchmark smoke: every perfbench workload for a few ops,
# traced and untraced, through the façade path. Fails on an unexpected
# metric set or unit, or on any answer that differs from
# perfbench/refs.json (see perfbench/README.md).
bench-smoke:
	python3 perfbench/run.py --smoke

# Drift check: every stats.Recorder/telemetry counter and gauge name
# registered in code must appear in docs/OBSERVABILITY.md's metric
# tables, and every documented name must still exist in code.
lint-metrics:
	$(GO) run ./cmd/lintmetrics

# Planner smoke: on one small workload, answer a cold criterion by
# checkpointed re-execution and compare against the cheapest graph-build
# path, then replay the criterion stream through the cost-based planner.
# RunPlanner fails the target if the median reexec-vs-build speedup
# falls below 2x, the median planning regret (chosen backend's latency
# over the per-query best) exceeds 1.2, or any backend disagrees on a
# slice (see docs/PLANNER.md).
bench-planner:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/experiments -exp planner -workload li -out $$dir; \
	st=$$?; rm -rf $$dir; exit $$st

# The experiments whose artifacts cmd/benchdiff gates.
BENCH_EXPS = parallel,memory,telemetry,snapshot,planner,queries,explain,qtrace

# Regression gate: regenerate the gated benchmark artifacts into a temp
# directory and diff against bench/baselines. Each gated row is one
# layer's quantity (batch speedups, compact resident bytes and build
# times, per-backend slice times and query traversal instances, snapshot
# load time and file size, re-execution time and segment scans, ...); the
# gate fails when a row's
# median cross-workload delta exceeds its allowance — 20% base, scaled up
# for timing noise; see cmd/benchdiff. Baselines are machine-dependent;
# refresh them on the gating machine with `make bench-baseline`.
bench-check:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/experiments -exp $(BENCH_EXPS) -out $$dir && \
	$(GO) run ./cmd/benchdiff -current $$dir; \
	st=$$?; rm -rf $$dir; exit $$st

# Refresh the bench-check baselines (and the checked-in root artifacts)
# from this machine.
bench-baseline:
	$(GO) run ./cmd/experiments -exp $(BENCH_EXPS)
	mkdir -p bench/baselines
	cp BENCH_parallel.json BENCH_memory.json BENCH_telemetry.json BENCH_snapshot.json BENCH_planner.json BENCH_queries.json BENCH_explain.json BENCH_qtrace.json bench/baselines/

experiments:
	$(GO) run ./cmd/experiments -exp all
