GO ?= go
FUZZTIME ?= 10s
BENCHCOUNT ?= 7

.PHONY: build test loc bench bench-monitor bench-json bench-jobs bench-average bench-snapshot bench-rerank bench-cluster bench-drift telemetry-overhead verify fma-check fuzz-smoke cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# loc prints non-blank, non-test Go lines per package directory and in
# total: the size the project is judged on. perfbench (its own module) and
# .bench_build are left out.
LOC_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*'
loc:
	@$(LOC_FILES) | xargs awk 'NF { d = FILENAME; sub(/^\.\//, "", d); sub(/\/?[^\/]*$$/, "", d); n[d == "" ? "." : d]++ } END { for (d in n) printf "%7d  %s\n", n[d], d }' | sort -k2
	@$(LOC_FILES) | xargs awk 'NF { t++ } END { printf "%7d  total\n", t }'

# Quick benchmark smoke pass: every benchmark in the module, once. Full
# numbers come from the gated targets below and cmd/fairbench.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Streaming-monitor benchmarks: per-event delta maintenance vs the
# from-scratch recompute baseline, and the same event on the half-life
# estimator, across group counts.
bench-monitor:
	$(GO) test -run '^$$' -bench 'BenchmarkMonitor|BenchmarkDecayEvent' -benchmem ./internal/monitor/ ./internal/drift/

# bench-json emits BENCH_4.json: the telemetry-overhead benchmark parsed
# into JSON plus the engine's full telemetry snapshot from an
# instrumented reference audit. Format documented in EXPERIMENTS.md.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetryOverhead' -benchmem -benchtime 2000x -count 3 ./internal/core/ \
		| $(GO) run ./cmd/benchjson -out BENCH_4.json

# bench-jobs emits BENCH_5.json: job-scheduler throughput (memory vs
# durable store, 1 vs 4 workers) and the dedup fast path, parsed into the
# same JSON artifact format as bench-json. Format in EXPERIMENTS.md.
bench-jobs:
	$(GO) test -run '^$$' -bench 'BenchmarkJobs' -benchmem -benchtime 200x -count 3 ./internal/jobs/ \
		| $(GO) run ./cmd/benchjson -out BENCH_5.json

# bench-average is the CI gate for Definition 2's exact average
# (DESIGN.md §9): over the reps of all-attributes' full split of the
# paper's population (1,767 parts at 7,300 workers under f1), the
# sorted-column identity must be at least 10x faster than the block pair
# fill through distOf over the same reps (overhead <= -90%). BENCHCOUNT
# single rounds, each emitting both paths back to back, paired per round
# as in telemetry-overhead below. BENCH_6.json is the record of the
# pruning cascade this gate replaced.
bench-average:
	@rm -f /tmp/average-bench.txt
	@for i in $$(seq $(BENCHCOUNT)); do \
		$(GO) test -run '^$$' -bench 'BenchmarkAverage$$' -benchtime 5x -count 1 ./internal/core/ >> /tmp/average-bench.txt || exit 1; \
	done
	@grep ns/op /tmp/average-bench.txt
	$(GO) run ./cmd/benchdiff -baseline 'path=pair' -candidate 'path=identity' -max-overhead -90 < /tmp/average-bench.txt

# bench-snapshot is the CI gate for the mmap snapshot engine (DESIGN.md
# §10) and emits BENCH_7.json. Each of the BENCHCOUNT rounds emits every
# workload over both backings as adjacent src=mem / src=mmap lines — a
# million-worker raw column scan plus the Table 2 audit cells — and one
# benchdiff gate holds the memory-mapped view to within 10% of the
# heap-resident dataset across all of them (per-round pairing rationale
# as in telemetry-overhead below). Zero-copy means there is no
# per-element decode to pay for; anything past noise is a regression.
bench-snapshot:
	@rm -f /tmp/snapshot-bench.txt
	@for i in $$(seq $(BENCHCOUNT)); do \
		$(GO) test -run '^$$' -bench 'BenchmarkSnapshot(Scan|Table2)$$' -benchtime 1x -count 1 -timeout 30m . >> /tmp/snapshot-bench.txt || exit 1; \
	done
	@grep ns/op /tmp/snapshot-bench.txt
	$(GO) run ./cmd/benchdiff -baseline 'src=mem' -candidate 'src=mmap' -max-overhead 10 < /tmp/snapshot-bench.txt
	$(GO) run ./cmd/benchjson -algo balanced -workers 7300 -out BENCH_7.json < /tmp/snapshot-bench.txt

# bench-rerank is the CI gate for the serving-time re-ranking suite
# (DESIGN.md §11) and emits BENCH_8.json. Two checks run:
#   1. latency budget: TestRerankP99Budget load-generates 480 requests per
#      registered re-ranker over a 5000-candidate pool and holds each
#      algorithm's fairrank_rerank_seconds p99 under 0.25s.
#   2. registry overhead: serving exposure-parity through the registry
#      (Lookup + nil-registry telemetry, the POST /v1/rank path) must stay
#      within 5% of calling ExposureParity directly. BENCHCOUNT separate
#      short rounds, per-round pairing rationale as in telemetry-overhead.
bench-rerank:
	@rm -f /tmp/rerank-bench.txt
	$(GO) test -run '^TestRerankP99Budget$$' -v ./internal/rerank/
	@for i in $$(seq $(BENCHCOUNT)); do \
		$(GO) test -run '^$$' -bench 'BenchmarkRerankServe$$' -benchtime 100x -count 1 ./internal/rerank/ >> /tmp/rerank-bench.txt || exit 1; \
	done
	@grep ns/op /tmp/rerank-bench.txt
	$(GO) run ./cmd/benchdiff -baseline 'path=direct' -candidate 'algo=exposure-parity/path=registry' -max-overhead 5 < /tmp/rerank-bench.txt
	$(GO) run ./cmd/benchjson -algo balanced -out BENCH_8.json < /tmp/rerank-bench.txt

# bench-cluster is the CI gate for the cluster subsystem (DESIGN.md §12)
# and emits BENCH_9.json. Three cells per round: cluster=off (the
# pre-cluster single-node submit+drain path), cluster=solo (identical
# workload with the cluster layer enabled but zero peers — heartbeat
# loop, ring of one, placement checks all live), and cluster=three (a
# 3-node in-process cluster draining a backlog pinned to one node via
# work-stealing; reports the steal-latency histogram). The benchdiff
# gate holds cluster=solo within 5% of cluster=off: clustering compiled
# in but not in use must be (nearly) free. BENCHCOUNT separate short
# rounds, per-round pairing rationale as in telemetry-overhead below.
bench-cluster:
	@rm -f /tmp/cluster-bench.txt
	@for i in $$(seq $(BENCHCOUNT)); do \
		$(GO) test -run '^$$' -bench 'BenchmarkClusterJobs$$' -benchtime 100x -count 1 ./internal/server/ >> /tmp/cluster-bench.txt || exit 1; \
	done
	@grep ns/op /tmp/cluster-bench.txt
	$(GO) run ./cmd/benchdiff -baseline 'cluster=off' -candidate 'cluster=solo' -max-overhead 5 < /tmp/cluster-bench.txt
	$(GO) run ./cmd/benchjson -algo balanced -out BENCH_9.json < /tmp/cluster-bench.txt

# bench-drift is the CI gate for the continuous-audit subsystem
# (DESIGN.md §13) and emits BENCH_10.json. Three checks run:
#   1. zero-alloc steady state: TestWindowSteadyStateAllocs holds the
#      sliding window's per-event path at 0 allocs over a stable
#      join/rescore/leave mix.
#   2. window cost: the sliding-window estimator must stay within 2x of
#      the unbounded monitor per event (the window pays a ring write and
#      an occasional retraction on top of the same delta machinery).
#   3. alarm overhead: evaluating the standard 3-rule set after every
#      event must stay within 5% of running the same watch with no rules.
# The alarm overhead is a few ns on a few hundred, far below the host's
# run-to-run noise, so the gate pairs many short adjacent runs instead of
# a few long ones: each of 100 rounds is one process running the arms in
# ABBA order (BenchmarkDriftAlarm), 20 000 events a run, and benchdiff
# takes the median of the 200 per-pair ratios. Adjacent pairs share the
# host's load, ABBA cancels any edge of the arm that runs second, and
# every run builds fresh watches, so memory-layout luck averages out too.
bench-drift:
	@rm -f /tmp/drift-bench.txt /tmp/drift-bench.test
	$(GO) test -run '^TestWindowSteadyStateAllocs$$' -v ./internal/drift/
	$(GO) test -c -o /tmp/drift-bench.test ./internal/drift/
	@for i in $$(seq 100); do \
		(cd internal/drift && /tmp/drift-bench.test -test.run '^$$' -test.bench 'BenchmarkDrift(PerEvent|Alarm)$$' -test.benchtime 20000x) >> /tmp/drift-bench.txt || exit 1; \
	done
	@grep -c ns/op /tmp/drift-bench.txt
	$(GO) run ./cmd/benchdiff -baseline 'estimator=unbounded' -candidate 'estimator=window' -max-overhead 100 < /tmp/drift-bench.txt
	$(GO) run ./cmd/benchdiff -baseline 'alarms=off' -candidate 'alarms=on' -max-overhead 5 < /tmp/drift-bench.txt
	$(GO) run ./cmd/benchjson -algo balanced -out BENCH_10.json < /tmp/drift-bench.txt

# telemetry-overhead is the CI gate for the observability layer: the
# always-on metrics path (what fairserve enables per request) must stay
# within 5% of the uninstrumented baseline, and the opt-in span-tracing
# path within a loose 30% tripwire (its fixed per-span cost is magnified
# by the deliberately tiny benchmark audit). BENCHCOUNT separate short
# `go test` rounds — each emitting all three variants back to back —
# rather than one -count run, because benchdiff pairs same-round lines
# and takes the median of per-round ratios; grouped repetition would
# reintroduce the host-load drift the pairing exists to cancel.
telemetry-overhead:
	@rm -f /tmp/telemetry-bench.txt
	@for i in $$(seq $(BENCHCOUNT)); do \
		$(GO) test -run '^$$' -bench 'BenchmarkTelemetryOverhead' -benchtime 2000x -count 1 ./internal/core/ >> /tmp/telemetry-bench.txt || exit 1; \
	done
	@grep ns/op /tmp/telemetry-bench.txt
	$(GO) run ./cmd/benchdiff -baseline 'telemetry=off' -candidate 'telemetry=metrics' -max-overhead 5 < /tmp/telemetry-bench.txt
	$(GO) run ./cmd/benchdiff -baseline 'telemetry=off' -candidate 'telemetry=trace' -max-overhead 30 < /tmp/telemetry-bench.txt

# verify is the gate for changes to the evaluation engine: static checks
# plus the race detector over the whole module. Every package rides along —
# the differential/metamorphic suites added with internal/testkit made the
# leaf packages cheap enough that excluding them buys nothing.
verify:
	$(GO) vet ./...
	$(GO) test -race ./...

# fma-check fails when the compiler fused a multiply and an add into one
# instruction in a function of FMA_FUNCS. The Go spec lets it do so on
# arm64, ppc64le, riscv64 and loong64 (never on amd64), and a fused result
# rounds once where the written expression rounds twice, so the same audit
# would give other bits there; an explicit float64(...) conversion of the
# product forbids the fusion. The check cross-compiles every binary under
# cmd/ and examples/ for each of those architectures, in one go build per
# architecture, and reads the machine code of every fairrank function with
# go tool objdump: no emulator, no download.
FMA_ARCHS = arm64 ppc64le riscv64 loong64
FMA_FUNCS = ^fairrank
fma-check:
	@dir=$$(mktemp -d) || exit 1; trap 'rm -rf "$$dir"' EXIT; fail=0; \
	for arch in $(FMA_ARCHS); do \
		GOOS=linux GOARCH=$$arch $(GO) build -o $$dir/$$arch/ ./cmd/... ./examples/... || exit 1; \
		dump=$$(for bin in $$dir/$$arch/*; do $(GO) tool objdump -s '$(FMA_FUNCS)' $$bin || exit 1; done) || exit 1; \
		funcs=$$(echo "$$dump" | grep '^TEXT ' | sort -u | wc -l); \
		fused=$$(echo "$$dump" | grep -E '\bFN?M(ADD|SUB)D?\b'); \
		if [ "$$funcs" -eq 0 ]; then echo "$$arch: no function matches $(FMA_FUNCS)"; fail=1; \
		elif [ -n "$$fused" ]; then echo "$$arch: fused multiply-add in $(FMA_FUNCS):"; echo "$$fused"; fail=1; \
		else echo "$$arch: no fused multiply-add in $$funcs functions"; fi; \
	done; exit $$fail

# fuzz-smoke runs each fuzz target for FUZZTIME (default 10s), sequentially
# — `go test -fuzz` accepts only one target per invocation. The targets are
# read from the code with `go test -list`, so a new one runs without an
# edit here, and a package that fails to list fails the target. The
# committed corpora under testdata/fuzz/ are replayed by plain `go test` as
# well; this target additionally explores new inputs.
fuzz-smoke:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1 } /^ok / { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read pkg target; do \
		echo "$$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# cover writes a module-wide coverage profile (uploaded as a CI artifact).
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1
