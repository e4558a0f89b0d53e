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

.PHONY: all build vet lint test race bench identical results results-check examples trace \
	install-lint-tools

all: build vet lint test race

build:
	go build ./...

# bench/ is its own module, so the root's ./... skips it; its go test
# runs only vet's test subset (no copylocks, for example).
vet:
	go vet ./...
	cd bench && go vet ./...

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
# git archive into a temporary directory and builds swbench, swrun,
# swtrace and every example there and from the working tree. The two
# builds must print the same stdout for the examples, for swrun on each
# docs/scenarios file, for swrun under all four schedulers with a device
# loss and with a seeded fault mix plus a checkpoint interval, for each
# swrun flag family the README shows (elastic ops, gangs, open-loop
# serving, traffic, collocation), for swtrace's ascii and profile
# outputs under both of its schedulers on a V100 and a Jetson TX2, its
# json and chrome outputs under both schedulers on a V100, and a
# three-model -prio chrome trace, and for swbench -trace's report and
# Chrome trace file; then for the full swbench sweep, whose serial and
# parallel runs must match too. A file added under docs/scenarios must
# parse under REF's swrun as well.
REF ?= HEAD
IDENTICAL_FLAGS := -exp all -iters 20 -requests 40
IDENTICAL_EXAMPLES := $(notdir $(wildcard examples/*))
IDENTICAL_SWRUN := -machine 2gpu -jobs train:ResNet50:16:1@0,train:VGG16:16:1@1,serve:ResNet50:1:2@0 -for 20s

identical:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/ref" "$$tmp/bin-ref" "$$tmp/bin" "$$tmp/out-ref" "$$tmp/out"; \
	git archive $(REF) | tar -x -C "$$tmp/ref"; \
	build() { \
		(cd "$$1" && go build -o "$$2/" ./cmd/swbench ./cmd/swrun ./cmd/swtrace && \
		for ex in $(IDENTICAL_EXAMPLES); do go build -o "$$2/ex-$$ex" ./examples/$$ex; done); \
	}; \
	outputs() { \
		for ex in $(IDENTICAL_EXAMPLES); do "$$1/ex-$$ex" > "$$2/ex-$$ex.txt"; done; \
		for sc in docs/scenarios/*.json; do "$$1/swrun" -scenario "$$sc" > "$$2/scenario-$${sc##*/}.txt"; done; \
		for s in switchflow threaded timeslice mps; do \
			"$$1/swrun" -sched $$s $(IDENTICAL_SWRUN) -lose-gpu 0@5s > "$$2/swrun-$$s-lose-gpu.txt"; \
			"$$1/swrun" -sched $$s $(IDENTICAL_SWRUN) -fault-seed 7 -checkpoint-every 2s > "$$2/swrun-$$s-fault-seed.txt"; \
		done; \
		"$$1/swrun" -machine 2gpu -jobs train:ResNet50:16:1 -vnodes 0 \
			-resize train-ResNet50=2@10s -drain 0@20s -for 60s > "$$2/swrun-elastic.txt"; \
		"$$1/swrun" -machine nvlink -jobs train:ResNet50:32:1 -gang 2 -for 30s > "$$2/swrun-gang.txt"; \
		"$$1/swrun" -jobs serve:ResNet50:1:2 -serve-every 10ms -poisson \
			-slo 200ms -max-batch 8 -batch-wait 5ms -for 30s > "$$2/swrun-serving.txt"; \
		"$$1/swrun" -jobs serve:ResNet50:1:2,serve:VGG16:1:2 -traffic 200 \
			-diurnal 60s/0.35 -spike 6@20s/3s/8s/4s \
			-slo 200ms -max-batch 4 -batch-wait 2ms -for 60s > "$$2/swrun-traffic.txt"; \
		"$$1/swrun" -machine 2gpu -sched switchflow \
			-jobs train:ResNet50:32:1@1,train:VGG16:32:2@1 -for 30s > "$$2/swrun-collocate.txt"; \
		for s in threaded switchflow; do for g in V100 "Jetson TX2"; do for f in ascii profile; do \
			"$$1/swtrace" -sched $$s -gpu "$$g" -format $$f -for 2s > "$$2/swtrace-$$s-$${g// /-}-$$f.txt"; \
		done; done; \
		for f in json chrome; do \
			"$$1/swtrace" -sched $$s -gpu V100 -format $$f -for 2s > "$$2/swtrace-$$s-V100-$$f.txt"; \
		done; done; \
		"$$1/swtrace" -sched switchflow -models ResNet50,VGG16,ResNet50 -prio 3,1,2 \
			-format chrome -for 2s > "$$2/swtrace-prio-chrome.txt"; \
		(cd "$$2" && "$$1/swbench" -trace swbench-trace.json > swbench-trace.txt); \
	}; \
	build "$$tmp/ref" "$$tmp/bin-ref"; \
	build . "$$tmp/bin"; \
	outputs "$$tmp/bin-ref" "$$tmp/out-ref"; \
	outputs "$$tmp/bin" "$$tmp/out"; \
	diff -r "$$tmp/out-ref" "$$tmp/out"; \
	echo "identical: $$(ls "$$tmp/out" | wc -l) example/swrun/swtrace/swbench-trace outputs match $(REF)"; \
	"$$tmp/bin-ref/swbench" $(IDENTICAL_FLAGS) -parallel 1 > "$$tmp/ref.txt" 2>/dev/null; \
	"$$tmp/bin/swbench" $(IDENTICAL_FLAGS) -parallel 1 > "$$tmp/serial.txt" 2>/dev/null; \
	"$$tmp/bin/swbench" $(IDENTICAL_FLAGS) -parallel 8 > "$$tmp/parallel.txt" 2>/dev/null; \
	cmp "$$tmp/ref.txt" "$$tmp/serial.txt"; \
	cmp "$$tmp/serial.txt" "$$tmp/parallel.txt"; \
	echo "identical OK: $$(wc -l < "$$tmp/serial.txt") lines match $(REF) and -parallel 8"

# Chrome trace-event artifact from the canned two-ResNet50 co-run on a
# V100 (the switchflow cell). Open trace.json in https://ui.perfetto.dev.
trace:
	go run ./cmd/swbench -trace trace.json

# Regenerate every table and figure of the paper (and the extensions).
RESULTS_FLAGS := -exp all -iters 200 -requests 200

results:
	go run ./cmd/swbench $(RESULTS_FLAGS) | tee docs/results-full.txt

# Fails when docs/results-full.txt is stale: reruns the results sweep and
# diffs its stdout against the committed file.
results-check:
	go run ./cmd/swbench $(RESULTS_FLAGS) | diff docs/results-full.txt -

examples:
	go run ./examples/quickstart
	go run ./examples/inference_collocation
	go run ./examples/multitask_reuse
	go run ./examples/preemption_migration
	go run ./examples/listing1
	go run ./examples/hyperparam_tuning
