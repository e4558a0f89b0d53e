# SwitchFlow reproduction — common targets.

# Several targets pipe `go test` through tee; without pipefail the pipe's
# exit status is tee's, and test failures silently pass CI.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# Pinned external tool versions — the single source of truth, reused by
# the CI lint job. Bump here and CI follows. (These tools are not module
# dependencies: the build environment may be offline, so `make lint`
# skips any that are not already installed.)
STATICCHECK_VERSION := 2024.1.1
GOVULNCHECK_VERSION := v1.1.3

.PHONY: all build vet lint test race bench identical results examples trace \
	install-lint-tools

all: build vet lint test race

build:
	go build ./...

vet:
	go vet ./...

# Static analysis: go vet, a gofmt check (fails when any file needs
# formatting), then swlint (the project's own determinism and
# concurrency checks — see docs/architecture.md "Determinism & concurrency
# invariants"), then staticcheck and govulncheck when installed. gofmt and
# swlint ship with the toolchain and the module, so they always run,
# offline included; the external tools are best-effort locally and
# mandatory in CI.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists files that need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	go run ./cmd/swlint ./...
	@if command -v staticcheck >/dev/null; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (make install-lint-tools)"; \
	fi
	@if command -v govulncheck >/dev/null; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (make install-lint-tools)"; \
	fi

# Install the pinned external lint tools (requires network access).
install-lint-tools:
	go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

test:
	go test ./... 2>&1 | tee test_output.txt

# Full suite under the race detector: the parallel experiment harness
# runs cells on concurrent goroutines, so every package must be
# race-clean.
race:
	go test -race ./... 2>&1 | tee race_output.txt

bench:
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Byte-identity oracle for refactors: extracts REF (default HEAD) with
# git archive into a temporary directory, builds swbench there and from
# the working tree, and requires the full sweep's stdout to match; the
# working tree's serial and parallel runs must match too.
REF ?= HEAD
IDENTICAL_FLAGS := -exp all -iters 20 -requests 40

identical:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/ref"; \
	git archive $(REF) | tar -x -C "$$tmp/ref"; \
	(cd "$$tmp/ref" && go build -o "$$tmp/swbench-ref" ./cmd/swbench); \
	go build -o "$$tmp/swbench" ./cmd/swbench; \
	"$$tmp/swbench-ref" $(IDENTICAL_FLAGS) -parallel 1 > "$$tmp/ref.txt" 2>/dev/null; \
	"$$tmp/swbench" $(IDENTICAL_FLAGS) -parallel 1 > "$$tmp/serial.txt" 2>/dev/null; \
	"$$tmp/swbench" $(IDENTICAL_FLAGS) -parallel 8 > "$$tmp/parallel.txt" 2>/dev/null; \
	cmp "$$tmp/ref.txt" "$$tmp/serial.txt"; \
	cmp "$$tmp/serial.txt" "$$tmp/parallel.txt"; \
	echo "identical OK: $$(wc -l < "$$tmp/serial.txt") lines match $(REF) and -parallel 8"

# Chrome trace-event artifact from the canned two-ResNet50 co-run on a
# V100 (the switchflow cell). Open trace.json in https://ui.perfetto.dev.
trace:
	go run ./cmd/swbench -trace trace.json

# Regenerate every table and figure of the paper (and the extensions).
results:
	go run ./cmd/swbench -exp all -iters 200 -requests 200 | tee docs/results-full.txt

examples:
	go run ./examples/quickstart
	go run ./examples/inference_collocation
	go run ./examples/multitask_reuse
	go run ./examples/preemption_migration
	go run ./examples/listing1
	go run ./examples/hyperparam_tuning
