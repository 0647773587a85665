# Developer entry points. `make check` is the gate to run before sending a
# change: build + vet + full tests, plus the race detector over the
# concurrent suite-runner and trace paths. `make check-deep` adds the
# differential-oracle sweep (internal/oracle) at full depth.

GO ?= go

# Minimum statement coverage of each package `make cover` gates.
COVER_MIN ?= 80.0

# Coverage profile destination: a temp path by default so `make cover` never
# litters (or accidentally commits) a profile into the work tree.
COVERPROFILE ?= $(if $(TMPDIR),$(TMPDIR),/tmp)/pdede-coverage.out

# Per-target fuzz duration. The default keeps `make fuzz` quick for local
# runs; the nightly workflow runs it at FUZZTIME=30s.
FUZZTIME ?= 15s

# Pinned third-party tool versions, shared with CI. @latest would make lint
# results drift between a contributor's machine and the CI runner.
STATICCHECK_VERSION ?= 2025.1.2
GOVULNCHECK_VERSION ?= v1.1.5

# Packages run under the race detector by `make race`. One variable instead
# of a hardcoded list in the recipe, so new concurrent packages are added
# here (and CI picks them up automatically).
RACE_PKGS ?= ./internal/experiments/... ./internal/trace/... ./internal/core/... ./internal/oracle/... ./internal/serve/... ./internal/cache/... ./internal/predictor/...

# Tenant count for the acceptance-scale chaos run (`make serve-load`). The
# plain test suite runs the same scenario at a modest tenant count.
SERVE_LOAD_TENANTS ?= 1000

# Worker count for the `make check-deep` differential sweep: both the app
# subtests and the per-design subtests run in parallel, so the sweep's
# wall clock scales with this (results are identical for every value).
CHECK_DEEP_WORKERS ?= $(shell nproc 2>/dev/null || echo 4)

.PHONY: build test vet lint race fuzz cover bench serve-load check check-deep

build:
	$(GO) build ./...

# The benchmark (layerbench/) is a nested module that `./...` does not
# reach; test it too so an internal API change cannot break it unnoticed.
test: build
	$(GO) test ./...
	$(GO) -C layerbench test ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet (the prerequisite), gofmt drift, and staticcheck
# at the pinned $(STATICCHECK_VERSION) — optional locally (skipped with a
# notice when not installed); the CI lint job installs exactly that
# version and gets the full check. The repository has no analyzers of its
# own: its contracts are tested at run time (DESIGN.md §6.2) — same-seed
# determinism and map-free output order, atomic file replacement, Lookup
# purity, the allocation-free per-record path, design registration, the
# address-field widths and domains, and the lock discipline under
# `make race`.
lint: vet
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@echo "lint: ok"

# The experiment harness fans apps out across goroutines, the fault layer is
# exercised from them, the core models run under -parallel app sweeps, the
# differential runner drives parallel subtests, and the serve stack is
# concurrent end to end; keep all of it race-checked on every run.
race:
	$(GO) test -race $(RACE_PKGS)

# Short coverage-guided fuzz sessions (each seed corpus also runs as a plain
# test inside `make test`): the v1 trace decoder, the in-memory PDT1 record
# log against that decoder, the batch record decoder that every reader of
# both containers runs against the checked one, the .pdtz v2 round trip,
# the ChampSim and perf script ingestion adapters, the 57-bit VA component
# algebra (FuzzComponentRoundTrip, FuzzBuildDecompose, and FuzzWithOffset
# for the offset field's width), PDede's delta encode/decode path, the
# cache model against its stamp-LRU reference, and pdede-serve's two
# untrusted inputs: HTTP batch bodies and checkpoint files.
fuzz:
	$(GO) test ./internal/trace/ -fuzz FuzzDecoder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -fuzz FuzzRecordLogMatchesDecoder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -fuzz FuzzBatchDecoder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -fuzz FuzzPdtzRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/champsim/ -fuzz FuzzChampSimDecoder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/perfscript/ -fuzz FuzzPerfScriptParser -fuzztime $(FUZZTIME)
	$(GO) test ./internal/addr/ -fuzz FuzzComponentRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/addr/ -fuzz FuzzBuildDecompose -fuzztime $(FUZZTIME)
	$(GO) test ./internal/addr/ -fuzz FuzzWithOffset -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pdede/ -fuzz FuzzDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache/ -fuzz FuzzCacheMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -fuzz FuzzDecodeBody -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -fuzz FuzzDecodeCheckpoint -fuzztime $(FUZZTIME)

# Statement coverage of the BTB design packages and of the two designs
# built on their internals (Shotgun's two Baselines, the two-level BTB),
# each package gated at COVER_MIN: the audit/oracle work exists to keep
# these structures honest, so their own test coverage must not rot. The
# awk pass sums the profile's statement blocks per package directory, as
# `go test -cover` does.
cover:
	$(GO) test -coverprofile=$(COVERPROFILE) ./internal/btb/ ./internal/pdede/ ./internal/shotgun/ ./internal/multilevel/
	@awk -v min="$(COVER_MIN)" ' \
		NR == 1 { next } \
		{ pkg = $$1; sub(/\/[^\/]*$$/, "", pkg); if (!(pkg in n)) order[++k] = pkg; \
		  n[pkg] += $$2; if ($$3 > 0) c[pkg] += $$2 } \
		END { for (i = 1; i <= k; i++) { p = order[i]; pct = 100 * c[p] / n[p]; \
		        printf "cover: %s %.1f%% (min %s%%)\n", p, pct, min; if (pct < min) bad = 1 } \
		      if (bad) print "cover: FAIL — below " min "%"; exit bad }' $(COVERPROFILE)

# The repository's benchmark (layerbench/, declared in BENCHMARK.json): every
# workload once, end to end. There is no committed baseline; a comparison
# runs both commits itself, on one host, and sets the two result sets side
# by side with `bash layerbench/run.sh -agree a.jsonl b.jsonl`.
bench:
	bash layerbench/run.sh -workload all

# Acceptance-scale chaos run against pdede-serve: SERVE_LOAD_TENANTS
# synthetic tenants with stalling/truncating uploads and one mid-run
# drain/restart cycle, verified bit-identical against offline replay. The
# same scenario runs at a modest tenant count inside `make test`.
serve-load: build
	PDEDE_LOADTEST_TENANTS=$(SERVE_LOAD_TENANTS) $(GO) test -race -run TestChaosLoad -v -count=1 -timeout 20m ./internal/serve/loadtest

check: vet test race cover
	@echo "check: ok"

# Differential-oracle sweep at depth: every registered design runs in
# lockstep with its unbounded reference oracle over 8 catalog apps with
# periodic invariant audits. Semantic divergences and audit failures fail
# the target; capacity/aliasing divergences are legal and logged. The
# (app, design) subtests run CHECK_DEEP_WORKERS-wide.
check-deep: build
	CHECK_DEEP_APPS=8 $(GO) test ./internal/oracle/ -run TestCheckDeep -v -timeout 30m -parallel $(CHECK_DEEP_WORKERS)
	@echo "check-deep: ok"
