# Correctness tooling entry points. CI runs the same three gates; see
# .github/workflows/ci.yml and the "Correctness tooling" section of the
# README.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test vet race fuzz-smoke cluster-smoke crash-smoke fmt api api-check loc

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet builds the project-specific multichecker (floatcmp, droppederr,
# ctxflow, obslabel, lockscope, lockorder, hotpath, nocheckaudit — see
# docs/ANALYZERS.md) and runs it over every package via the standard
# go vet -vettool driver, with cross-package facts flowing through the
# vetx protocol. The tree must be warning-clean: every remaining
# finding is either fixed or carries a justified directive.
vet:
	$(GO) build -o bin/lbsq-vet ./cmd/lbsq-vet
	$(GO) vet -vettool=$(CURDIR)/bin/lbsq-vet ./...

# race runs the full suite under the race detector with the lbsqcheck
# invariant assertions compiled in. The experiments package alone needs
# well over the default 10m package timeout under -race on small runners.
race:
	$(GO) test -race -tags lbsqcheck -timeout 30m ./...

# fuzz-smoke gives each native fuzz target a short budget on top of the
# checked-in corpus replay (which plain `go test` already performs).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzPolygonClip -fuzztime=$(FUZZTIME) ./internal/geom
	$(GO) test -run '^$$' -fuzz FuzzWindowMinkowski -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeNN$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeWindow$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzHTTPParams -fuzztime=$(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzInfluentialSet -fuzztime=$(FUZZTIME) ./internal/insq
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzArenaFreeze -fuzztime=$(FUZZTIME) ./internal/rtree/arena

# cluster-smoke runs the networked-cluster integration suite — real
# HTTP data nodes, coordinator parity against the in-process oracle,
# fault injection, and the coordinator's HTTP front end — under the
# race detector.
cluster-smoke:
	$(GO) test -race -tags lbsqcheck -timeout 15m ./internal/dist/ ./internal/shard/
	$(GO) test -race -tags lbsqcheck -timeout 5m -run 'TestCoordinatorFrontEnd' .

# crash-smoke runs the durability suite — WAL replay, checkpoint
# truncation, torn-tail handling, and the kill-mid-write subprocess
# harness — under the race detector.
crash-smoke:
	$(GO) test -race -tags lbsqcheck -timeout 10m \
		-run 'Durable|Crash|Admin|WAL|Snapshot|Checkpoint|Recover|Store' \
		. ./internal/wal ./internal/storage

fmt:
	gofmt -w .

# api regenerates the public-API snapshot. Run it (and review the diff)
# whenever the exported surface of package lbsq changes.
api:
	$(GO) run ./cmd/lbsq-apidump -dir . > docs/api.txt

# api-check fails when the exported surface drifted from the checked-in
# snapshot — CI runs this so every public-API change is an explicit,
# reviewed diff of docs/api.txt.
api-check:
	@$(GO) run ./cmd/lbsq-apidump -dir . > bin/api.txt.new 2>/dev/null || \
		{ mkdir -p bin && $(GO) run ./cmd/lbsq-apidump -dir . > bin/api.txt.new; }
	@diff -u docs/api.txt bin/api.txt.new || \
		{ echo "public API drifted from docs/api.txt; run 'make api' and review the diff" >&2; exit 1; }

# loc prints the prod and test Go line counts by one fixed rule: every
# tracked .go file outside perfbench/ (a module of its own), split on
# the _test.go suffix. CHANGES.md takes its net prod-line deltas from it.
loc:
	@git ls-files '*.go' | grep -v '^perfbench/' | grep -v '_test\.go$$' | xargs cat | wc -l | awk '{print "prod", $$1}'
	@git ls-files '*.go' | grep -v '^perfbench/' | grep '_test\.go$$' | xargs cat | wc -l | awk '{print "test", $$1}'
