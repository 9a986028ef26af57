GO ?= go
FUZZTIME ?= 10s

.PHONY: build test loc bench gates verify fma-check fuzz-smoke cover

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

# Quick benchmark smoke pass: every benchmark in the module, once. The
# gated numbers come from `make gates`, full tables from cmd/fairbench.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# gates runs the in-process benchmark gates, the table in
# cmd/benchgate/main.go: each holds a candidate sub-benchmark to a bound
# over its baseline, by the median of per-round paired ratios. It writes
# the JSON record of every gate to gates.json and fails when any gate is
# past its bound.
gates:
	$(GO) run ./cmd/benchgate > gates.json

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
