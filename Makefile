GO ?= go

.PHONY: build fmtcheck test expcheck race vet allocs procs arch benchtest lint lint-json fuzz-smoke wallsmoke examples matsmoke loc census mutants mutants-check ci

build:
	$(GO) build ./...

# Formatting gate: every tracked .go file (testdata fixtures included) must
# be gofmt-clean. Lists the offending files and fails if there are any.
fmtcheck:
	@files=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$files" ]; then echo "gofmt needed on:"; echo "$$files"; exit 1; fi

test:
	$(GO) test ./...

# The committed experiment tables are a gate: every -exp table, figure and
# sweep (Tables 1-2, the headline, the ablations, ...) regenerated on the sim
# backend must match experiments_output.txt byte for byte. A change that
# moves a count regenerates the file and says why in CHANGES.md.
expcheck:
	$(GO) run ./cmd/experiments -exp all -bits 65536 | diff -u experiments_output.txt -

# Machine-checked invariants: the four ftlint analyzers (accown, poolspawn,
# recoverpath, modbound) plus the stale-suppression audit, over the whole
# tree — including internal/analysis itself. See DESIGN.md "Machine-checked invariants".
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

# The whole suite at eight procs. go test -cpu sets GOMAXPROCS after package
# init, so state sized from GOMAXPROCS at init would disagree with the
# GOMAXPROCS the tests read; on a host with fewer cores this is also the
# only run where the worker pool has more slots than CPUs.
procs:
	$(GO) test -count=1 -cpu 8 ./...

# Other word sizes and byte orders: the whole suite on 386 (32-bit
# big.Word; an amd64 host runs it natively), then build-only arm64 and
# s390x (big-endian), which are built, not run, because no emulator may be
# downloaded.
arch:
	GOARCH=386 $(GO) test ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=s390x $(GO) build ./...

# The repository benchmark's own tests (bench/ is a module of its own, so
# ./... never reaches it): workload cycles, metric definitions and their
# agreement with BENCHMARK.json, and a smoke run of every workload.
benchtest:
	cd bench && $(GO) test ./...

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

# Ten seconds of randomized fuzzing per target, run by CI on every push:
# the bigint kernels and accumulators against math/big, the Toom-2 count
# walk's word-length decisions, the matrix tile kernels' count identity and
# the Toom leaf's count identity (the seed corpora run in `make test`).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzNatMul -fuzztime 10s ./internal/bigint
	$(GO) test -run '^$$' -fuzz FuzzIntArith -fuzztime 10s ./internal/bigint
	$(GO) test -run '^$$' -fuzz FuzzToom2Lengths -fuzztime 10s ./internal/bigint
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

# Linker census of unreached code (scripts/census.sh): every non-test
# function no binary reaches must be on scripts/census.keep, and every entry
# there must still be unreached. Every main under cmd/ and examples/, plus
# bench/, roots the census in one pass.
census:
	@bash scripts/census.sh

# The seeded-defect catalogue (scripts/mutants.sh, scripts/mutants/*.patch):
# per patch, which tests fail and which ftlint analyzers report (and, when
# neither does, which tests fail under -race), on a temp copy of the
# tracked tree. Fails when a patch no longer applies or nothing catches its
# defect. About half a minute per entry, so it stays out of ci.
mutants:
	@bash scripts/mutants.sh

# Seconds: every catalogue patch still applies (git apply --check), so an
# edit that moves a seeded line fails in the change that moved it.
mutants-check:
	@bash scripts/mutants.sh check

# ci mirrors .github/workflows/ci.yml locally: everything a PR must pass.
ci: build fmtcheck census mutants-check test expcheck vet allocs procs arch benchtest race fuzz-smoke wallsmoke matsmoke examples lint
