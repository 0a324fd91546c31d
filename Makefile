# Tier-1 verification and CI entry points.

GO ?= go

.PHONY: check vet build test race mdbench-check bench-smoke bench fuzz-smoke docs-gate

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
# Performance numbers come from mdbench (BENCHMARK.json) and from
# `make bench`; the deterministic counter gates (gate_test.go) run in
# `race` with every other test.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Bounded run of the cross-engine differential fuzzer: 400 random
# monadic programs × 2 random trees, the compiled query on {linear,
# bitmap} × {-O0, -O1} and the raw program on {semi-naive, LIT}, all
# compared with the naive fixpoint on every visible relation, plus
# all-linear and all-bitmap fused QuerySet passes against their
# individual evaluations, plus each program fused with a renamed,
# reordered copy of itself that dedup must merge away, plus the random
# edit-script oracle
# (incremental maintenance of grounding plans, and the MSO, negated
# XPath and Elog⁻Δ plans run on the live arena, ≡ replay from scratch).
# Override the workload with MDLOG_FUZZ_N / MDLOG_FUZZ_SEED.
# The store restart round-trip rides along: persistence must survive a
# kill/reboot byte-identically, and it's fast enough for the quick path.
# Last, ten seconds each of native fuzzing: the reference HTML parser
# against the streaming one mdlogd serves with, on arbitrary bytes;
# then the XPath printer against the parser and the set-at-a-time
# Select against the node-at-a-time reference, on arbitrary queries;
# then the datalog printer against the parser, on arbitrary programs;
# then the tree-term printer against the parser, on arbitrary terms;
# then the caterpillar and MSO printers against their parsers, on the
# arbitrary expressions and formulas PUT /wrappers accepts.
fuzz-smoke:
	MDLOG_FUZZ_N=$${MDLOG_FUZZ_N:-400} $(GO) test -run 'TestDifferentialEngines|TestIncrementalDifferential' -count=1 .
	$(GO) test -run 'TestStoreRestartRoundTrip|TestStoreCorruptSnapshotFailsBoot' -count=1 ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzStreamingMatchesNodes$$' -fuzztime 10s ./internal/html
	$(GO) test -run '^$$' -fuzz '^FuzzXPathSelect$$' -fuzztime 10s ./internal/xpath
	$(GO) test -run '^$$' -fuzz '^FuzzParseProgram$$' -fuzztime 10s ./internal/datalog
	$(GO) test -run '^$$' -fuzz '^FuzzParseTree$$' -fuzztime 10s ./internal/tree
	$(GO) test -run '^$$' -fuzz '^FuzzParseCaterpillar$$' -fuzztime 10s ./internal/caterpillar
	$(GO) test -run '^$$' -fuzz '^FuzzParseMSO$$' -fuzztime 10s ./internal/mso

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...
