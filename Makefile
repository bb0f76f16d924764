# Development entry points. `make check` is the CI gate: gofmt, full build, vet,
# race-enabled tests, and the serving layer's self-checking load smoke.

GO ?= go

.PHONY: all fmt build vet test test-short race fuzz-smoke cover smoke obs-smoke chaos-smoke api-smoke perfbench-test check bench bench-serve bench-cpu bench-multi bench-alloc bench-auto

all: check

# Formatting gate: fails, listing the files, if gofmt would rewrite any
# Go file in the tree.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Developer-sized sweep: the 240-job soaks in cmd/hpuserve skip under
# -short, keeping this under ~30s of wall clock.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Seed-corpus replay of the wire-format fuzzers (no fuzzing engine, just the
# checked-in testdata/fuzz crashers and edge cases as ordinary table rows).
# Continuous fuzzing is `go test -fuzz=FuzzReadInt32Frame ./internal/api/`
# and friends; this target is the cheap regression gate CI runs on every
# check.
fuzz-smoke:
	$(GO) test -run '^Fuzz' ./internal/api/

# Coverage gate. COVER_BASELINE is the recorded floor for the -short suite's
# total statement coverage; lower it only with a PR that explains why.
COVER_BASELINE = 60.0

cover:
	$(GO) test -short -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -n 1
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	awk -v t=$$total -v b=$(COVER_BASELINE) 'BEGIN { \
		if (t + 0 < b + 0) { printf "cover: total %.1f%% is below the %.1f%% baseline\n", t, b; exit 1 } \
		printf "cover: total %.1f%% meets the %.1f%% baseline\n", t, b }'

# 5-second self-checking load test of the job server on the native backend:
# mixed algorithms and strategies, random priorities and cancellations.
# Exits nonzero on any failed job, accounting mismatch, or goroutine leak.
smoke:
	$(GO) run ./cmd/hpuserve --smoke

# Observability smoke: same load with the HTTP endpoints served on a
# loopback port, then a self-scrape of /metrics asserting the queue-depth,
# per-priority latency, and transfer-byte metrics advanced under load.
obs-smoke:
	$(GO) run ./cmd/hpuserve --obs-smoke --duration 2s

# Chaos soak under the race detector: 240 jobs through a seeded fault
# injector (~20% device-fault rate), retry/hedge/fallback policies and the
# circuit breaker active. Exits nonzero on any wrong result, unbounded
# shedding, silent reliability metrics, or goroutine leak; writes the fault
# report CI uploads as an artifact. The second run soaks a 2-device pool
# with faults injected into one device only: that device must trip its
# breaker and auto-drain, every job must still verify, and no healthy job
# may be shed with ErrDegraded.
chaos-smoke:
	$(GO) run -race ./cmd/hpuserve --chaos --chaos-report CHAOS_report.json
	$(GO) run -race ./cmd/hpuserve --chaos --chaos-devices 2 --chaos-fault-rate 0.4 --chaos-report CHAOS_pool_report.json

# Remote-serving smoke over real TCP: boots the HTTP/JSON job API, drives 64
# concurrent clients with a mixed mergesort/scan/sum workload (every result
# verified bit-identical against a local reference), asserts overload
# surfaces as 429 + Retry-After, streams /events for per-level progress,
# scrapes /metrics, then SIGTERMs itself and asserts the drain refuses new
# submissions while completing every in-flight job before the listener
# closes.
api-smoke:
	$(GO) run ./cmd/hpuserve --api-smoke

# The repository benchmark's own tests. perfbench is a nested module, so
# `go test ./...` from the root never builds it; this runs its generator,
# metric catalogue and bit-exact output gate against the current tree.
perfbench-test:
	$(GO) -C perfbench test .

check: fmt build vet race fuzz-smoke smoke

bench:
	$(GO) test -bench=. -benchmem .

# Fused vs unfused serving throughput on the simulator: 64 GPU-only jobs at
# three sizes through a plain and a fusing server, timed in deterministic
# virtual seconds and written to BENCH_serve.json. Exits nonzero if any
# per-job result differs between the two or the small-job speedup falls
# below the 1.5x acceptance floor.
bench-serve:
	$(GO) run ./cmd/hpuserve --bench-fusion --bench-out BENCH_serve.json

# Breadth-first CPU executor: the work-stealing engine without and with
# automatic leaf coarsening, for mergesort/dcsum/scan at three sizes. Exits
# nonzero if any run is not bit-identical to the sequential baseline.
# Writes BENCH_cpu.json and a markdown table for the CI job summary.
bench-cpu:
	$(GO) run ./cmd/hpuserve --bench-cpu --bench-cpu-out BENCH_cpu.json --bench-cpu-summary BENCH_cpu.md

# Multi-device serving throughput on the simulator: the same GPU-bound
# 64-job mix through pools of 1, 2 and 4 devices, timed in deterministic
# virtual seconds (pool makespan = slowest device's clock). Writes
# BENCH_multidev.json; exits nonzero if any result diverges from the
# single-device run or the 2-device pool misses the 1.6x speedup floor.
bench-multi:
	$(GO) run ./cmd/hpuserve --bench-multi --bench-multi-out BENCH_multidev.json

# Allocation-regression gate for the zero-copy hot path: -benchmem profiles
# of the served submit path and the fused GPU executor with the buffer pool
# disabled vs enabled, plus the JSON vs binary API round trip at 1M
# elements over real TCP. Writes BENCH_alloc.json; exits nonzero if pooling
# regresses submit allocs/op, the fused path's bytes/op are not at least
# halved, the binary wire is below 2x, or the two wire formats disagree.
bench-alloc:
	$(GO) run ./cmd/hpuserve --bench-alloc --bench-alloc-out BENCH_alloc.json

# Strategy Auto vs every fixed strategy on the simulated HPU1, across a
# mergesort size sweep spanning the CPU/GPU crossover. The auto server's
# calibrator is warmed with fixed-strategy training traffic, then each size
# is measured once in deterministic virtual seconds. Writes BENCH_auto.json;
# exits nonzero if auto strays more than 10% from the best fixed strategy at
# any size, never beats the worst fixed strategy by 1.5x, or any result is
# not bit-identical to the plain-Go sort.
bench-auto:
	$(GO) run ./cmd/hpuserve --bench-auto --bench-auto-out BENCH_auto.json
