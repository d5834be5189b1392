GO ?= go

.PHONY: all build test race vet fmt fuzz-smoke exact-v3 workers check loc flake bench bench-all bench-compare bench-preproc bench-load bench-fleet bench-gemm bench-stream bench-tenant

all: check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Vetted for arm64 too: the packed GEMM's assembly body is amd64-only,
# and a function declared without a body elsewhere fails only there.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# Race-check the concurrency-heavy packages (serving path incl. the
# replica-pool router, the lock-free metrics recorders, the trace ring
# buffer, pipeline with its live sim-vs-real validation test, the
# preprocessing engine shared by concurrent callers, the load harness,
# and the compute backend:
# the packed/quantized GEMM kernels and attention tasks on the worker
# team and the workspace free lists of the executable models, plus the streaming camera
# ingest tier with its async frame completions and serialized uplink),
# and core's replica and tier assembly (the rest of core builds a single
# server and submits to it from one goroutine).
race:
	$(GO) test -race ./internal/serve/... ./internal/fleet/... ./internal/metrics/... ./internal/trace/... ./internal/pipeline/... ./internal/imaging/... ./internal/preprocess/... ./internal/loadgen/... ./internal/tensor/... ./internal/quant/... ./internal/models/... ./internal/stream/... ./internal/transfer/... ./internal/modelio/...
	$(GO) test -race -run 'Tier|Replica' ./internal/core/

# Every Fuzz* target in the repo, 5 s each, from its committed seed
# corpus (testdata/fuzz/<target>/): long enough to catch a decoder that
# panics or over-allocates on a near-miss of a seed, short enough for
# the gate. go test -fuzz takes one package and one target at a time.
fuzz-smoke:
	@grep -rlE '^func Fuzz' --include='*_test.go' . | xargs -n1 dirname | sort -u | while read -r pkg; do \
		for target in $$(grep -hoE '^func Fuzz[A-Za-z0-9_]*' $$pkg/*_test.go | sed 's/^func //'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s $$pkg || exit 1; \
		done; \
	done

# Each assembly body in imaging and tensor must give its Go body's bits,
# and the Go bodies are written without FMA. At GOAMD64=v3 the compiler
# may fuse a Go x*y+z into an FMA and change those bits, so both
# packages' tests run again at v3 (on a CPU that can run v3 code).
exact-v3:
	@if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo && grep -qw bmi2 /proc/cpuinfo; then \
		GOAMD64=v3 $(GO) test ./internal/imaging/ ./internal/tensor/; \
	else \
		echo "exact-v3: skipped, this CPU cannot run x86-64-v3 code"; \
	fi

# The compute's worker team with 0, 1 and 3 helpers, and at a
# GOMAXPROCS that changes within one process: the golden logits, batch
# consistency, concurrent callers and the team's own tests at -cpu 1,2,4.
workers:
	$(GO) test -run 'Golden|BatchConsistency|ConcurrentCallers|Team' -cpu 1,2,4 ./internal/tensor ./internal/models

# Every Go file must be gofmt-clean; the offending files are listed.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The CI gate: tier-1 tests (including cmd's flag-surface golden) plus
# vet, gofmt, the race suite, the fuzz smoke run, the GOAMD64=v3 rerun
# and the worker-count sweep.
check: build vet fmt test race fuzz-smoke exact-v3 workers

# Non-test Go line counts (wc -l, *_test.go excluded) per internal
# package, for cmd/ and examples/, and in total: the number a "judged by
# lines removed" refactor is judged by. Then every non-test file over
# 700 lines (ROADMAP item 4's ceiling). Informational; no gate reads it.
loc:
	@for d in internal/* cmd examples; do \
		printf '%7d  %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" $$d; \
	done
	@printf '%7d  total\n' "$$(find internal cmd examples -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"
	@find internal cmd examples -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
		awk '$$2 != "total" && $$1 > 700 { printf "%7d  %s is over 700 lines\n", $$1, $$2 }'

# Tier-1 tests, uncached, N times (default 5) with a CPU hog spinning
# beside them — a busy host is where timing-sensitive tests flake — then
# each run's outcome and wall time and the pass count. Informational; no
# gate reads it.
N ?= 5
flake: build
	@sh -c 'while :; do :; done' & hog=$$!; trap 'kill $$hog 2>/dev/null' EXIT INT TERM; \
	pass=0; for i in $$(seq 1 $(N)); do \
		start=$$(date +%s%N); \
		if $(GO) test -count=1 ./... >/dev/null 2>&1; then pass=$$((pass + 1)); r=pass; else r=FAIL; fi; \
		ms=$$((($$(date +%s%N) - start) / 1000000)); \
		printf 'run %d: %s, %d.%d s\n' $$i $$r $$((ms / 1000)) $$((ms % 1000 / 100)); \
	done; \
	echo "$$pass of $(N) runs passed"

bench:
	$(GO) test -bench=. -benchmem

# The benchmark spine (benchmark/README.md): every workload, untraced
# then traced, into one result file; bench-compare judges two such
# files against the bounds in BENCHMARK.json and exits non-zero on a
# regression.
bench-all:
	$(GO) run ./benchmark run --workload all --seed 1 --out .bench_build/all.json

bench-compare:
	$(GO) run ./benchmark compare $(OLD) $(NEW)

# Real compute-backend benchmark: really executes 1024^3 GEMMs at every
# backend precision (naive fp32 baseline, packed fp32, f16/bf16, int8
# on the VPMADDUBSW kernel) plus end-to-end model forward passes, and
# records achieved GFLOPS, efficiency vs the measured fp32 roofline, and
# images/sec by precision into BENCH_PR8.json.
bench-gemm: build
	$(GO) run ./cmd/harvest-bench -gemmbench BENCH_PR8.json

# Preprocessing microbenchmarks on a 4K raw frame: fused-vs-naive
# kernel and pooled-vs-alloc buffers.
bench-preproc:
	$(GO) test ./internal/preprocess/ -run NONE -bench BenchmarkPreprocess -benchmem

# Seeded ramp-to-failure sweep: self-hosts a 2-replica Jetson router
# serving ViT_Base at full modeled latency and ramps the open-loop
# classes from a healthy base rate (~50 req/s) to ~12x — past the
# fleet's ~375 req/s capacity — emitting BENCH_PR6.json (per-class
# throughput, service and intended-start percentiles, SLO attainment,
# 429/504 counts). Deterministic arrival schedules via -seed.
bench-load:
	$(GO) run ./cmd/harvest-loadgen -spawn 2 -platform Jetson \
		-model ViT_Base -timescale 1 -max-queue-depth 64 -name PR6 \
		-seed 1 -duration 12s -warmup 2s -shape ramp -peak-mult 12 \
		-class realtime:rate=30,items=1,slo=400ms \
		-class online:rate=20,items=1,slo=800ms \
		-class offline:workers=1,items=8

# Autoscaler churn scenario: a managed (lease-registered, SLO-driven)
# Jetson fleet serving ViT_Base under a seeded open-loop load step —
# 50 req/s stepping 6x to 300 req/s at t=8s, past the ~187 req/s
# single-replica knee — plus a replica crash at t=16s (no
# deregistration; the lease TTL-expires). Emits BENCH_PR7.json with the
# per-second timeline, the autoscaler's decision log (sim predictions
# vs observed demand) and the registry's membership events.
bench-fleet:
	$(GO) run ./cmd/harvest-loadgen -fleet-min 1 -fleet-max 4 \
		-platform Jetson -model ViT_Base -timescale 1 -name PR7 \
		-fleet-interval 2s -fleet-slo 250ms -fleet-lease-ttl 1s \
		-seed 1 -duration 24s -warmup 2s -shape step -peak-mult 6 \
		-step-at 8s -churn-kill-at 16s -timeline \
		-class online:rate=50,items=1,slo=800ms

# Streaming-camera scenario: 6 cameras at 60 FPS against a self-hosted
# undersized edge tier (one Jetson replica serving ViT_Base at full
# modeled latency — ~187 req/s capacity vs the 360 FPS aggregate —
# with streaming ingest + dedup cache) offloading to an in-process
# A100 cloud router over a modeled rural LTE uplink that cannot carry
# the full overflow either, so the admission gate sheds stale frames.
# Emits BENCH_PR9.json with per-camera drop rate, dedup hit rate,
# offload fraction and intended-start P99. Deterministic frame content
# via -seed.
bench-stream:
	$(GO) run ./cmd/harvest-loadgen -stream -model ViT_Base -name PR9 \
		-seed 1 -cameras 6 -static-cameras 2 -fps 60 -stream-frames 180 \
		-frame-size 96 -stream-budget 100ms -offload-queue-threshold 2 \
		-offload-link lte

# Multi-tenant isolation scenario: two well-behaved open-loop tenants
# (farm-a, farm-b) at 30 req/s each on a 2-replica Jetson fleet
# (~375 req/s aggregate capacity), first alone
# (BENCH_PR10_baseline.json), then beside an abusive closed-loop
# tenant — 16 workers that would saturate the fleet unmanaged — under
# a per-tenant quota (3 items/s per replica, 25% queue share). The
# quota is mirrored at the router (fleet-aggregate rate), so the hog's
# rejects are answered in one hop instead of spilling across the pool,
# and its Retry-After pushes the workers into jittered backoff.
# Deficit-round-robin scheduling plus the quota must keep the victims'
# P99 and SLO attainment within ~10% of their solo baseline while the
# hog eats its isolated 429 budget. The victim classes come first so
# their seeded arrival schedules are identical across both runs.
# Emits BENCH_PR10.json.
bench-tenant:
	$(GO) run ./cmd/harvest-loadgen -spawn 2 -platform Jetson \
		-model ViT_Base -timescale 1 -max-queue-depth 64 \
		-name PR10_baseline -seed 1 -duration 42s -warmup 2s \
		-class online:rate=30,items=1,slo=800ms,tenant=farm-a \
		-class online:rate=30,items=1,slo=800ms,tenant=farm-b
	$(GO) run ./cmd/harvest-loadgen -spawn 2 -platform Jetson \
		-model ViT_Base -timescale 1 -max-queue-depth 64 \
		-name PR10 -seed 1 -duration 42s -warmup 2s \
		-tenant-quota "hog:rate=3,burst=3,share=0.25" \
		-class online:rate=30,items=1,slo=800ms,tenant=farm-a \
		-class online:rate=30,items=1,slo=800ms,tenant=farm-b \
		-class online:workers=16,items=1,slo=800ms,tenant=hog
