GO ?= go

.PHONY: build test race vet fmt loc loc-by-package bench bench-e2e bench-wal

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# loc prints the tracked size of the tree: non-test Go lines outside bench/
# (ROADMAP aim 2 wants this number to go down).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# loc-by-package breaks loc down: non-test Go lines per directory under
# internal/, cmd/ and examples/, so a PR that claims a collapse shows where it
# came from (its lines sum to loc, the single tracked total).
loc-by-package:
	@for d in internal/* cmd/* examples/*; do \
		printf '%6d %s\n' "$$(find $$d -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" $$d; \
	done

# bench smoke-runs every benchmark once, mirroring the CI job that keeps
# benchmarks from rotting.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-e2e runs the repository benchmark declared in BENCHMARK.json (its own
# module under bench/, see bench/README.md), e.g.
# make bench-e2e ARGS="--workload online-sebf-k8 --seed 1 --seconds 20 --trace 0"
bench-e2e:
	bash bench/run.sh $(ARGS)

# bench-wal prints the WAL admit-path overhead (wal=off vs wal=on): the
# concurrent series is held against a ≤5% admit budget (group-committed fsyncs
# amortize across in-flight admissions), the serial series rides along as a
# raw fsync-latency diagnostic (see the Durability section of EXPERIMENTS.md).
# STRICT=1 fails on budget violation; CI does.
bench-wal:
	scripts/bench_wal.sh $(LABEL)
