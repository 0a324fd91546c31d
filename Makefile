# Tier-1 verification and CI entry points.

GO ?= go

.PHONY: check vet build test race mdbench-check bench-smoke bench bench-treesize bench-service bench-opt bench-queryset bench-incremental bench-subsume bench-span fuzz-smoke docs-gate

check: docs-gate build race mdbench-check fuzz-smoke bench-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# mdbench is its own module (replace mdlog => ../), so ./... above never
# compiles it; it builds against the façade, so vet and test it here.
mdbench-check:
	cd mdbench && $(GO) vet ./... && $(GO) test ./...

# The docs gate: formatting, vet, and the exported-doc-comment check
# on the root package (doccheck_test.go). gofmt -l prints offenders;
# grep inverts that into a pass/fail.
docs-gate: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) test -run TestDocComments .

# One iteration per benchmark: catches bit-rot without burning CI time.
# Also emits BENCH_treesize.json (substrate parse/materialize/select
# ns-per-node at 1k/10k nodes in quick mode), BENCH_optimize.json
# (optimizer rule-count reduction + Select speedup per wrapper),
# BENCH_queryset.json (fused vs sequential N-wrapper evaluation),
# BENCH_incremental.json (incremental vs full revision cost per edit
# fraction), BENCH_service.json (fleet-mode dedup + shard scaling),
# BENCH_subsume.json (containment-aware vs plain fused pipeline) and
# BENCH_span.json (compiled span extraction vs node-select + Go regexp,
# 100k-node point included even in quick mode) so every CI run archives
# a perf trajectory point.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) run ./cmd/benchtables -quick -treesize BENCH_treesize.json
	$(GO) run ./cmd/benchtables -quick -opt BENCH_optimize.json
	$(GO) run ./cmd/benchtables -quick -queryset BENCH_queryset.json
	$(GO) run ./cmd/benchtables -quick -incremental BENCH_incremental.json
	$(GO) run ./cmd/benchtables -quick -service BENCH_service.json
	$(GO) run ./cmd/benchtables -quick -subsume BENCH_subsume.json
	$(GO) run ./cmd/benchtables -quick -span BENCH_span.json

# Full-size optimizer measurement (EXT-OPT).
bench-opt:
	$(GO) run ./cmd/benchtables -opt BENCH_optimize.json

# Full-size QuerySet fusion measurement (EXT-QUERYSET): fused vs
# sequential evaluation for fleets of 2/8/32 wrappers.
bench-queryset:
	$(GO) run ./cmd/benchtables -queryset BENCH_queryset.json

# Bounded run of the cross-engine differential fuzzer: 400 random
# monadic programs × 2 random trees, the compiled query on {linear,
# bitmap} × {-O0, -O1} and the raw program on {semi-naive, LIT}, all
# compared with the naive fixpoint on every visible relation, plus
# all-linear and all-bitmap fused QuerySet passes against their
# individual evaluations, plus the random edit-script oracle
# (incremental maintenance — grounding plans and the MSO snapshot
# fallback — ≡ replay from scratch).
# Override the workload with MDLOG_FUZZ_N / MDLOG_FUZZ_SEED.
# The store restart round-trip rides along: persistence must survive a
# kill/reboot byte-identically, and it's fast enough for the quick path.
fuzz-smoke:
	MDLOG_FUZZ_N=$${MDLOG_FUZZ_N:-400} $(GO) test -run 'TestDifferentialEngines|TestIncrementalDifferential' -count=1 .
	$(GO) test -run 'TestStoreRestartRoundTrip|TestStoreCorruptSnapshotFailsBoot' -count=1 ./internal/service

# Full-size substrate scaling points (1k/10k/100k nodes).
bench-treesize:
	$(GO) run ./cmd/benchtables -treesize BENCH_treesize.json

# Full-size incremental maintenance measurement (EXT-INCREMENTAL):
# 10k/100k-node documents, 0.1%/1%/10% edit fractions.
bench-incremental:
	$(GO) run ./cmd/benchtables -incremental BENCH_incremental.json

# Fleet-mode measurement (EXT-SERVICE): dedup-cache sweep (cache on vs
# off across duplicate ratios) and consistent-hash shard scaling at
# N ∈ {1,2,4} workers over real HTTP, written to BENCH_service.json
# (CI artifact). The in-process micro-benchmarks (direct Select vs HTTP
# extract vs batch) still run under bench / bench-smoke.
bench-service:
	$(GO) run ./cmd/benchtables -service BENCH_service.json

# Full-size wrapper-subsumption measurement (EXT-SUBSUME): fleets of
# 8/32/128 near-duplicate wrappers, containment-aware pipeline vs the
# plain fused baseline.
bench-subsume:
	$(GO) run ./cmd/benchtables -subsume BENCH_subsume.json

# Full-size span-extraction measurement (EXT-SPAN): compiled LangSpanner
# vs node-select + Go-regex post-processing at 10k/100k/300k nodes.
bench-span:
	$(GO) run ./cmd/benchtables -span BENCH_span.json

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...
