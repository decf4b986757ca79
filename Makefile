# Local mirror of .github/workflows/ci.yml — `make verify` runs the
# exact CI steps, so tier-1 verification is one command.

GO ?= go

.PHONY: verify fmt-check vet cross lint lint-test escape-gate build test race bench-module bench-smoke bench bench-compare layers certify certify-smoke loadtest loadtest-cluster fuzz fuzz-corpus fmt generate serve cover nofaultinject

verify: fmt-check vet cross lint lint-test escape-gate build test race bench-module certify-smoke loadtest loadtest-cluster bench-smoke
	@echo "verify: all checks passed"

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The portable file set: off amd64, Transpose64 is the generated Go form
# alone (internal/bitslice/transpose64_other.go). Vetting and building
# for arm64 keeps that set compiling; on amd64 itself, vet's asmdecl
# check holds the assembly stubs' frames to their Go declarations.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

# Repo-specific invariants (determinism, failpoint names, metric names,
# atomic/plain mixes, goroutine hygiene, error conventions) — see
# DESIGN.md §9.
lint:
	$(GO) run ./cmd/bsrnglint ./...

# The analyzer suite's own tests, run without -short so the golden
# fixtures and the module-wide TestRepoIsClean/TestRunCleanTree gates
# can never be skipped (other test runs may use -short).
lint-test:
	$(GO) test ./internal/lint ./cmd/bsrnglint

# Compiler-assisted allocation gate (DESIGN.md §14): every heap-escape
# diagnostic in a hot-path function must carry a reasoned waiver in the
# committed .escapeallow file.
escape-gate:
	$(GO) run ./cmd/escapecheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# The repository benchmark (bench/) is its own module, so the root
# build never compiles it: vet and test it here, or a change to an API
# it calls breaks only when the benchmark runs.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# The production configuration: the failpoint registry compiled to
# no-ops. Chaos tests skip themselves via faultinject.Available().
nofaultinject:
	$(GO) build -tags bsrng_nofaultinject ./...
	$(GO) test -tags bsrng_nofaultinject ./...

# One iteration of every benchmark, so bench code can never rot.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Measured CPU throughput (alg × workers, 64 lanes) as machine-readable
# JSON. BENCH_MINTIME trades accuracy for runtime.
BENCH_MINTIME ?= 1s
bench:
	$(GO) run ./cmd/benchcpu -out BENCH_cpu.json -mintime $(BENCH_MINTIME)

# Gating throughput drift check: remeasure, then diff against the
# committed BENCH_cpu.json. A cell more than BENCH_FAIL_AT slower fails;
# waive intentional baseline changes per-cell via the committed
# .benchallow file (alg/lanes/workers patterns — see `benchcompare -h`).
# BENCH_STRICT cells fail at the warn threshold and ignore .benchallow:
# aes-ctr throughput is the paper's headline claim, so any regression
# there stops the build instead of warning.
BENCH_FAIL_AT ?= 0.25
BENCH_STRICT ?= aes-ctr/*/*
bench-compare: bench
	git show HEAD:BENCH_cpu.json | $(GO) run ./cmd/benchcompare \
		-base - -new BENCH_cpu.json -fail-at $(BENCH_FAIL_AT) \
		-strict '$(BENCH_STRICT)' \
		-allow "$$(cat .benchallow 2>/dev/null || true)"

# The committed layer table: one traced run of the repository benchmark
# per workload — cipher kernels, transpose, rekey, Generator.Read,
# Stream at 1 and 2 workers, health screen, HTTP handlers and router
# hop — summarised, with the host environment the runs record, into
# LAYERS.json. Takes a few minutes; run it on an otherwise idle host.
layers:
	@mkdir -p .bench_build
	rm -f .bench_build/layers.jsonl
	@for w in lib-bulk served-mix served-routed; do \
		bash bench/run.sh --workload $$w --trace 1 --record .bench_build/layers.jsonl || exit 1; \
	done
	bash bench/run.sh --summarize .bench_build/layers.jsonl > .bench_build/LAYERS.json
	mv .bench_build/LAYERS.json LAYERS.json

# Served-path certification smoke cell (mirrors the CI verify step):
# boots a real bsrngd, pulls served segments, cross-checks them against
# the library stream and runs the fast battery. `make certify` is the
# full nightly matrix (see .github/workflows/certify.yml).
certify-smoke:
	$(GO) run ./cmd/certify -short -out CERTIFY.json -md CERTIFY.md

certify:
	$(GO) run ./cmd/certify -out CERTIFY.json -md CERTIFY.md

# Short deterministic load cell (mirrors the CI verify step): boot a
# bsrngd in-process, drive the mixed /bytes + /stream + lease workload
# with library verification, and emit LOAD.json. Scale the same command
# up by hand for a real soak, e.g.
# `go run ./cmd/loadgen -clients 1000 -requests 20 -verify`.
loadtest:
	$(GO) run ./cmd/loadgen -clients 16 -requests 8 -verify -out LOAD.json

# Cluster smoke (mirrors the CI step): boot 3 bsrngd nodes behind the
# in-process consistent-hash router, drive the same verified workload
# through the router with pulsed forward-fault injection, and emit
# LOAD_cluster.json (per-node distribution + router counters). A
# single-algorithm workload keeps the window digest comparable to a
# single-node run of the same flags — the router must not change bytes.
loadtest-cluster:
	$(GO) run ./cmd/loadgen -cluster 3 -cluster-chaos 2 -clients 16 -requests 8 \
		-algs grain -verify -out LOAD_cluster.json

# Blocking replay of every committed fuzz seed corpus (mirrors the CI
# fuzz-corpus job).
fuzz-corpus:
	$(GO) test -run=Fuzz -short ./...

# A short pass over every native fuzz target, found package by package
# as the `func Fuzz*` declarations of its test files (regression corpora
# under testdata/fuzz always replay blockingly via `make fuzz-corpus`).
FUZZTIME ?= 10s
fuzz:
	@for dir in $$($(GO) list -f '{{.Dir}}' ./...); do \
		for fn in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$dir/*_test.go 2>/dev/null); do \
			echo "fuzz: $$fn ($$dir)"; \
			$(GO) test -run=NONE -fuzz="^$$fn\$$" -fuzztime=$(FUZZTIME) $$dir || exit 1; \
		done; \
	done

# Whole-repo coverage profile plus hard floors on the packages whose
# correctness the chaos harness leans on (mirrors the CI coverage job).
COVER_FLOOR ?= 85.0
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	@for pkg in internal/health internal/faultinject internal/lint internal/certify internal/loadtest internal/cluster cmd/nist cmd/certify cmd/loadgen cmd/escapecheck; do \
		{ head -n 1 coverage.out; grep "^repro/$$pkg/" coverage.out; } > coverage.pkg.out; \
		pct="$$($(GO) tool cover -func=coverage.pkg.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }')"; \
		echo "coverage $$pkg: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p="$$pct" -v floor="$(COVER_FLOOR)" 'BEGIN { exit (p+0 >= floor+0) ? 0 : 1 }' \
			|| { echo "coverage: $$pkg below the $(COVER_FLOOR)% floor" >&2; exit 1; }; \
	done; \
	rm -f coverage.pkg.out

fmt:
	gofmt -w .

# Rewrite the committed generated kernels from their generators: MICKEY's
# straight-line clock (internal/mickey/clockkg_gen.go, from the cipher
# tables) and both 64x64 transpose kernels, the straight-line Go form
# (internal/bitslice/transpose64_gen.go) and the amd64 AVX-512/GFNI
# kernel with its gate's stubs (internal/bitslice/transpose64_amd64.s).
# `make test` fails whenever a committed file and its generator disagree.
generate:
	$(GO) test ./internal/mickey -run '^TestClockKGGenerated$$' -update
	$(GO) test ./internal/bitslice -run '^TestTranspose64Generated$$' -update

serve:
	$(GO) run ./cmd/bsrngd
