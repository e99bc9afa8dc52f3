# Convenience targets mirroring the CI pipeline.

.PHONY: all vet staticcheck build test race cover fuzz bench bench-all bench-smoke bench-check perf-pairs faults clientcache attrib live qos livefs suite reach ci

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

# live is the observability smoke: start bpsd replaying the sample
# Darshan log with the streaming endpoints on, then assert /metrics and
# /windows serve non-empty live data.
live:
	go build -o bpsd.smoke ./cmd/bpsd
	./bpsd.smoke -addr 127.0.0.1:18099 testdata/darshan_sample.csv & \
	pid=$$!; \
	ok=1; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18099/windows >/dev/null 2>&1; then ok=0; break; fi; \
		sleep 0.1; \
	done; \
	if [ $$ok -ne 0 ]; then echo "live: bpsd never served"; kill $$pid; rm -f bpsd.smoke; exit 1; fi; \
	metrics=$$(curl -sf http://127.0.0.1:18099/metrics); \
	windows=$$(curl -sf http://127.0.0.1:18099/windows); \
	kill $$pid; rm -f bpsd.smoke; \
	echo "$$metrics" | grep -q '^bps_window_bps' || { echo "live: /metrics missing bps_window_bps"; exit 1; }; \
	echo "$$windows" | grep -q '"windows":\[{' || { echo "live: /windows empty"; exit 1; }; \
	echo "live smoke OK"

# qos is the multi-tenant QoS smoke: start bpsd with the jobs API,
# submit a protected tenant (unmeetable floor, so the controller must
# act) plus an interfering one into one batch window, assert both
# finish with the throttle activated and /healthz OK, then SIGTERM and
# require a clean drain (exit 0).
qos:
	go build -o bpsd.smoke ./cmd/bpsd
	./bpsd.smoke -addr 127.0.0.1:18098 -procs 2 -mb 8 -batch-wait 500ms & \
	pid=$$!; \
	ok=1; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18098/healthz >/dev/null 2>&1; then ok=0; break; fi; \
		sleep 0.1; \
	done; \
	if [ $$ok -ne 0 ]; then echo "qos: bpsd never served"; kill $$pid; rm -f bpsd.smoke; exit 1; fi; \
	curl -sf -X POST -d '{"tenant":"alpha","priority":1,"bps_floor":1e8,"procs":2,"mb":4}' http://127.0.0.1:18098/jobs >/dev/null \
		|| { echo "qos: submitting alpha failed"; kill $$pid; rm -f bpsd.smoke; exit 1; }; \
	curl -sf -X POST -d '{"tenant":"beta","procs":2,"mb":1,"record_bytes":4096}' http://127.0.0.1:18098/jobs >/dev/null \
		|| { echo "qos: submitting beta failed"; kill $$pid; rm -f bpsd.smoke; exit 1; }; \
	ok=1; \
	for i in $$(seq 1 100); do \
		if curl -sf http://127.0.0.1:18098/jobs/1 | grep -q '"state":"done"' \
			&& curl -sf http://127.0.0.1:18098/jobs/2 | grep -q '"state":"done"'; then ok=0; break; fi; \
		sleep 0.1; \
	done; \
	if [ $$ok -ne 0 ]; then echo "qos: jobs never finished"; kill $$pid; rm -f bpsd.smoke; exit 1; fi; \
	qosrep=$$(curl -sf http://127.0.0.1:18098/qos); \
	health=$$(curl -sf http://127.0.0.1:18098/healthz); \
	echo "$$qosrep" | grep -q '"activations":[1-9]' || { echo "qos: throttle never activated: $$qosrep"; kill $$pid; rm -f bpsd.smoke; exit 1; }; \
	echo "$$health" | grep -q '"status":"ok"' || { echo "qos: unhealthy: $$health"; kill $$pid; rm -f bpsd.smoke; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "qos: bpsd exited nonzero after SIGTERM"; rm -f bpsd.smoke; exit 1; }; \
	rm -f bpsd.smoke; \
	echo "qos smoke OK"

# faults runs the FaultSweep smoke matrix: one healthy rate and one
# degraded rate at tiny scale, enough to exercise injection at every
# layer plus the client recovery path end to end.
faults:
	go run ./cmd/bpsbench -fig faults -scale 0.002 -fault-rates 0,0.016 -q
	go run ./cmd/bpsbench -fig faults -scale 0.002 -fault-rates 0,0.064 -q

# clientcache runs the client-cache sweep smoke: BPS must diverge from
# BW as the hit rate rises (the test suite asserts it; this prints it).
clientcache:
	go run ./cmd/bpsbench -fig clientcache -scale 0.002 -q

# attrib runs the critical-path profiler on the pinned-seed fig9
# workload and diffs the blame table (plus figure) against the golden —
# any drift in the attribution sweep or the simulation shows up here.
# The folded flame-graph stacks land in attrib_fig9.folded (CI uploads
# them as an artifact). Regenerate the golden after an intended change:
#   go run ./cmd/bpsbench -fig fig9 -scale 0.002 -q -attrib-out attrib_fig9.folded > testdata/attrib_fig9.golden
attrib:
	go run ./cmd/bpsbench -fig fig9 -scale 0.002 -q -attrib-out attrib_fig9.folded > attrib_fig9.out
	diff testdata/attrib_fig9.golden attrib_fig9.out
	@rm -f attrib_fig9.out
	@echo "attrib golden OK"

# Live-backend smoke: the deterministic memfs record-size sweep must
# match its golden byte for byte, and a real-filesystem run on a temp
# directory must produce nonzero BPS and a well-formed windows CSV.
# Regenerate the golden after an intended change:
#   go run ./cmd/bpsbench -fig livemem -scale 0.002 -q > testdata/livemem.golden
livefs:
	go run ./cmd/bpsbench -fig livemem -scale 0.002 -q > livemem.out
	diff testdata/livemem.golden livemem.out
	@rm -f livemem.out
	@echo "livemem golden OK"
	dir=$$(mktemp -d) && \
	go run ./cmd/bpsbench -backend os -dir $$dir -wall \
		-live-procs 2 -live-mb 4 -live-record 65536 \
		-windows-out $$dir/windows.csv > livefs.out 2>/dev/null && \
	grep -q 'BPS: *[1-9]' livefs.out \
		|| { echo "livefs: osfs run reported no BPS"; cat livefs.out; rm -rf $$dir livefs.out; exit 1; }; \
	head -1 $$dir/windows.csv | grep -q '^start_s,end_s,ops,blocks,busy_s,bps,bw_bytes_per_s,iops,arpt_s,utilization$$' \
		|| { echo "livefs: malformed windows CSV"; head -3 $$dir/windows.csv; rm -rf $$dir livefs.out; exit 1; }; \
	test $$(wc -l < $$dir/windows.csv) -gt 1 \
		|| { echo "livefs: windows CSV has no rows"; rm -rf $$dir livefs.out; exit 1; }; \
	rm -rf $$dir livefs.out
	@echo "livefs osfs smoke OK"

# suite runs the IO500-style composite at smoke scale: 4 phases × 3
# seeds with bootstrap CIs and roofline headroom, plus the JSON
# artifact. Asserts the headroom column and the CI brackets render and
# that the JSON is well-formed.
suite:
	go run ./cmd/bpsbench -fig suite -scale 0.002 -seeds 3 -q -roofline-out suite_smoke.json > suite_smoke.out
	grep -q 'headroom' suite_smoke.out || { echo "suite: no headroom column"; cat suite_smoke.out; rm -f suite_smoke.out suite_smoke.json; exit 1; }
	grep -q '95% CI' suite_smoke.out || { echo "suite: no CI columns"; cat suite_smoke.out; rm -f suite_smoke.out suite_smoke.json; exit 1; }
	grep -q 'Composite' suite_smoke.out || { echo "suite: no composite score"; cat suite_smoke.out; rm -f suite_smoke.out suite_smoke.json; exit 1; }
	grep -q '"ceiling_bps"' suite_smoke.json || { echo "suite: JSON missing ceilings"; rm -f suite_smoke.out suite_smoke.json; exit 1; }
	@rm -f suite_smoke.out suite_smoke.json
	@echo "suite smoke OK"

# reach is the reach gate: build every command and example with
# coverage, run them at smoke scale (figures, sweeps, live backends,
# bpstrace, bpsd over HTTP), and fail when a function no run reaches is
# missing from scripts/reach_allow.txt, or a listed one is reached, so
# the list only shrinks. Everything is built and run under $TMPDIR.
reach:
	python3 scripts/reach.py

ci: vet staticcheck build race bench-smoke faults clientcache live qos livefs suite attrib reach
