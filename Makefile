GO ?= go

.PHONY: build test race vet bench benchjson benchgate caltune fuzz lint lint-json fuzz-smoke wallsmoke examples matsmoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Machine-checked invariants: the twelve ftlint analyzers (arenasafe, accown,
# poolspawn, natalias, costcharge, chanproto, statsrace, recoverpath,
# modbound, tagflow, protomc, costbound) plus
# the stale-suppression audit, over the whole tree — including
# internal/analysis itself. See DESIGN.md "Machine-checked invariants".
# Fixture packages under testdata are not go-list packages, so ./... never
# analyzes them.
lint:
	$(GO) run ./cmd/ftlint ./...

# Same run, machine-readable: {"findings": [...], "suppressed": [...]} on
# stdout (recipe is @-silenced so `make lint-json > report.json` stays pure
# JSON). CI uploads this as the ftlint-report artifact.
lint-json:
	@$(GO) run ./cmd/ftlint -json ./...

# Full-tree race detector pass (~2 minutes; the crosscheck and ftparallel
# simulations dominate). Fixtures under testdata are not packages, so ./...
# never compiles them.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run '^$$' -bench 'Benchmark(Table1|Alloc)' -benchmem -benchtime 1x .

# Regenerate the committed benchmark snapshot for the current PR (the
# BENCH_PR*.json trajectory is append-only; see cmd/benchjson).
BENCH_OUT ?= BENCH_PR10.json
benchjson:
	$(GO) run ./cmd/benchjson -count 3 -out $(BENCH_OUT)

# Advisory perf gate: take a fresh interleaved snapshot of the alloc
# benchmarks and diff it against the newest committed BENCH_PR*.json.
# Fails on a >25% ns/op regression at stable allocs/op; the CI job that
# runs this is continue-on-error because shared runners are noisy.
BENCH_BASE ?= $(shell ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1)
benchgate:
	@test -n "$(BENCH_BASE)" || { echo "benchgate: no committed BENCH_PR*.json baseline"; exit 1; }
	$(GO) run ./cmd/benchjson -bench BenchmarkAlloc -count 3 -out '' -gate $(BENCH_BASE)

# Measure this machine's kernel crossovers and write calibration.json,
# picked up automatically by internal/bigint at process start.
caltune:
	$(GO) run ./cmd/caltune -v

# Wall-clock backend smoke: the machine/crosscheck suites that exercise the
# wallnet transport, then one real end-to-end FT multiplication on -backend
# wall with an injected fault, verified against math/big by ftmul itself.
wallsmoke:
	$(GO) test -run 'Wall|Backends|StragglerDropped' ./internal/machine/... ./internal/crosscheck ./internal/ftparallel
	$(GO) run ./cmd/ftmul -bits 16384 -algo ft -k 2 -P 9 -f 1 -fault 4:mul -backend wall -q

# Every runnable example, in dependency order: the integer tier's five
# (including the RSA round trip and the Kronecker-substitution polynomial
# product), then matstorm's fault-tolerant Strassen matmul under random
# fail-stop plans (verified element-wise against the naive O(n^3) product).
# CI's Examples step runs exactly this target.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/faultstorm
	$(GO) run ./examples/stragglers
	$(GO) run ./examples/rsacrypto
	$(GO) run ./examples/polymul
	$(GO) run ./examples/matstorm

# Matrix-tier smoke: the exhaustive single-fail-stop crosscheck over both
# backends, the golden F/BW/BW-in/L/barrier/Flops counts of every scheme
# under fault-free, eval-phase and mul-phase plans, then the Table-1-style
# matrix cost table on each backend.
matsmoke:
	$(GO) test ./internal/mat ./internal/ftmatmul
	$(GO) test -run 'TestMatrixSchemesPinnedCounts' ./internal/crosscheck
	$(GO) run ./cmd/experiments -algo matmul -backend sim
	$(GO) run ./cmd/experiments -algo matmul -backend wall

# Short fuzz pass over the bigint kernels and the matrix tile kernels' count
# identity (seed corpus always runs in `make test`).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzNatMul -fuzztime 10s ./internal/bigint
	$(GO) test -run '^$$' -fuzz FuzzIntArith -fuzztime 10s ./internal/bigint
	$(GO) test -run '^$$' -fuzz FuzzTileMulWork -fuzztime 10s ./internal/ftmatmul

# The 10-second-per-target smoke slice of `fuzz` that CI runs on every push.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzNatMul -fuzztime 10s ./internal/bigint
	$(GO) test -run '^$$' -fuzz FuzzTileMulWork -fuzztime 10s ./internal/ftmatmul

# ci mirrors .github/workflows/ci.yml locally: everything a PR must pass.
ci: build test vet race fuzz-smoke wallsmoke matsmoke examples lint
