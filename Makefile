# Convenience targets mirroring the CI pipeline.

.PHONY: all vet staticcheck build test race cover fuzz bench bench-all bench-smoke bench-check perf-pairs reach ci

all: ci

# vet fails on any file gofmt would rewrite, then runs go vet.
vet:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	go vet ./...

# staticcheck runs when the binary is installed (CI installs it; locally
# it is optional).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# cover writes the coverage profile CI uploads as an artifact and prints
# the per-function summary.
cover:
	go test -coverprofile=coverage.out ./...
	go tool cover -func=coverage.out | tail -n 1

# fuzz runs every Fuzz* target in the module for 30 s each (go test
# -fuzz takes one target per invocation). A failing input is saved
# under the package's testdata/fuzz, where plain go test replays it.
fuzz:
	@set -e; for pkg in $$(go list ./...); do \
		for fn in $$(go test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz $$pkg $$fn"; \
			go test -run '^$$' -fuzz "^$$fn\$$" -fuzztime 30s $$pkg; \
		done; \
	done

# bench runs the engine micro- and macro-benchmarks five times each and
# records every sample as test2json lines in BENCH_sim.json (the
# committed perf baseline), then echoes the human-readable Benchmark
# lines. benchguard compares per-benchmark medians.
bench:
	go test -run '^$$' -bench . -benchmem -count 5 -json -timeout 30m ./internal/sim/... ./internal/ioreq ./internal/qos ./internal/stats ./internal/roofline ./internal/obs ./cmd/bpsd > BENCH_sim.json
	@grep -o '"Output":"[^"]*"' BENCH_sim.json | sed -e 's/^"Output":"//' -e 's/"$$//' \
		| tr -d '\n' | sed -e 's/\\n/\n/g' -e 's/\\t/\t/g' | grep -E '^Benchmark.*ns/op'

# bench-all sweeps every package's benchmarks without recording.
bench-all:
	go test -run '^$$' -bench . -benchmem ./...

# bench-smoke runs each benchmark once — the CI guard that they compile
# and execute.
bench-smoke:
	go test -run '^$$' -bench . -benchtime=1x ./internal/sim/... ./internal/ioreq ./internal/qos ./internal/stats ./internal/roofline ./internal/obs ./cmd/bpsd

# bench-check is the bench-regression guard: rerun the engine
# benchmarks five times each and fail if a guarded hot path's median
# ns/op regresses more than 20%, or a guarded median allocation count
# grows more than 2%, against the committed BENCH_sim.json. The fresh numbers land in
# BENCH_new.json (never the baseline — regenerate that with `make
# bench` after an intended change).
bench-check:
	go run ./cmd/benchguard

# perf-pairs compares the working tree with revision BASE on one
# perfbench workload: PAIRS (even) paired runs in ABBA order with fresh
# seeds (pair i uses SEED+i), printing each pair's end-to-end metrics,
# the medians and the win count. Both sides are built outside the
# checkout.
#   make perf-pairs BASE=HEAD WORKLOAD=paper PAIRS=6 SEED=1000
BASE ?= HEAD
WORKLOAD ?= paper
PAIRS ?= 6
SEED ?= 1000
perf-pairs:
	python3 scripts/perf_pairs.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED)

# reach is the smoke harness and reach gate: build every command and
# example with coverage, run them at smoke scale (figures, sweeps, live
# backends, bpstrace, bpsd over HTTP), check their outputs (the fig9
# attribution, livemem, multi-stack replay, multiapp and whatif
# goldens, the suite's headroom and CIs, the
# osfs windows CSV, bpsd's metrics, QoS throttle, health and SIGTERM
# drain), and fail when a function no run reaches is missing from
# scripts/reach_allow.txt, or a listed one is reached, so the list only
# shrinks; a test-only entry's named test must reach its function.
# Everything is built and run under $TMPDIR.
reach:
	python3 scripts/reach.py

ci: vet staticcheck build race bench-smoke reach
