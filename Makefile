GO ?= go

.PHONY: build fmtcheck test race vet allocs benchtest bench benchjson benchgate caltune fuzz lint lint-json fuzz-smoke wallsmoke examples matsmoke loc ci

build:
	$(GO) build ./...

# Formatting gate: every tracked .go file (testdata fixtures included) must
# be gofmt-clean. Lists the offending files and fails if there are any.
fmtcheck:
	@files=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$files" ]; then echo "gofmt needed on:"; echo "$$files"; exit 1; fi

test:
	$(GO) test ./...

# Machine-checked invariants: the eleven ftlint analyzers (arenasafe, accown,
# poolspawn, natalias, costcharge, chanproto, statsrace, recoverpath,
# modbound, protomc, costbound) plus
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

# Allocation contracts at one and two cores: every test whose name contains
# "Alloc" (the NTT kernel and natMul through it, its per-prime and butterfly
# fan-out, the Toom leaf, the matrix tile, rat.New's word path, the
# machine's lazy channel allocation and its queued and waiting receives and
# barriers on both clocks, the limb-sharing unit scalings, the one-slab
# vector loops and reduce combiner, the FT multiply's budget). A contract
# that only holds when the worker pool never forks shows up at -cpu 2. The
# halves that rent from a sync.Pool skip under -race, so this target, not
# `make race`, is where they are checked.
allocs:
	$(GO) test -count=1 -cpu 1,2 -run 'Alloc' ./...

# The repository benchmark's own tests (bench/ is a module of its own, so
# ./... never reaches it): workload cycles, metric definitions and their
# agreement with BENCHMARK.json, and a smoke run of every workload.
benchtest:
	cd bench && $(GO) test ./...

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

# Wall-clock backend smoke: the whole machine suite (its table-driven tests
# run every receive, deadline, barrier, cancellation, timeout and allocation
# behaviour on the wall clock as well as the sim one, including the deadline
# test that receives a queued, on-time message after its deadline has
# passed; the rest are its wall-only dilation tests and a few sim-only
# ones), the crosscheck and ftparallel suites that exercise the wall
# backend, the real-time straggler test 20 times over, then one real
# end-to-end FT multiplication on -backend wall with an injected fault,
# verified against math/big by ftmul itself.
wallsmoke:
	$(GO) test ./internal/machine
	$(GO) test -run 'Wall|Backends|RecvDeadline' ./internal/crosscheck ./internal/ftparallel
	$(GO) test -run 'StragglerDroppedInRealTime' -count=20 ./internal/ftparallel
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

# Matrix-tier smoke: every ≤2-fault plan on all three schemes and both
# backends (exact product or an error, never a wrong matrix), the golden
# F/BW/BW-in/L/barrier/Flops counts of every scheme under fault-free,
# eval-phase and mul-phase plans, then the Table-1-style matrix cost table
# on each backend.
matsmoke:
	$(GO) test ./internal/mat ./internal/ftmatmul
	$(GO) test -run 'TestMatrixSchemesPinnedCounts' ./internal/crosscheck
	$(GO) run ./cmd/experiments -algo matmul -backend sim
	$(GO) run ./cmd/experiments -algo matmul -backend wall

# Short fuzz pass over the bigint kernels, the matrix tile kernels' count
# identity and the Toom leaf's count identity (seed corpus always runs in
# `make test`).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzNatMul -fuzztime 10s ./internal/bigint
	$(GO) test -run '^$$' -fuzz FuzzIntArith -fuzztime 10s ./internal/bigint
	$(GO) test -run '^$$' -fuzz FuzzTileMulWork -fuzztime 10s ./internal/ftmatmul
	$(GO) test -run '^$$' -fuzz FuzzToomMulStats -fuzztime 10s ./internal/toom

# The 10-second-per-target smoke slice of `fuzz` that CI runs on every push.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzNatMul -fuzztime 10s ./internal/bigint
	$(GO) test -run '^$$' -fuzz FuzzTileMulWork -fuzztime 10s ./internal/ftmatmul
	$(GO) test -run '^$$' -fuzz FuzzToomMulStats -fuzztime 10s ./internal/toom

# Non-test Go lines per package directory and in total, excluding testdata
# fixtures and the bench/ module: the size figure each change reports next
# to its behaviour change. Informational; nothing gates on it.
loc:
	@find . \( -path ./bench -o -name testdata -o -name '.?*' \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", t }' | sort -k2

# ci mirrors .github/workflows/ci.yml locally: everything a PR must pass.
ci: build fmtcheck test vet allocs benchtest race fuzz-smoke wallsmoke matsmoke examples lint
