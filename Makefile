# Developer entry points. `make check` is the gate every change must pass:
# build + vet + gofmt drift + simlint + race-enabled tests + the smokes.

GO ?= go

.PHONY: all build vet test race fmt-check lint typestate-smoke check bench alloc-check fault-smoke sweep-smoke oracle-smoke perf-smoke report-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fails (and lists the offenders) if any file is not gofmt-formatted.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# simlint is the repository's own static analysis (internal/lint): it
# enforces determinism (no wall clock, no math/rand, no order-sensitive map
# iteration, no goroutines in sim-scheduled code — with no file or package
# allowance under a //hot:path root), sim-time and unit discipline
# (name-based), sweep worker-race freedom (sharedstate), narrow-counter
# overflow (discharged only by an //inv: range contract, whose runtime twin
# internal/check enforces), and the //state: contracts (typestate:
# pooled-packet exactly-once free, scheduler handle lifecycles, ownership
# transfer). A whole-module run also fails the build on //lint:allow
# directives that no longer suppress anything. Stdlib-only.
lint:
	$(GO) run ./cmd/simlint ./...

# Typestate smoke: the engine's join/widening unit tests, the shared
# control-flow walker's (flow.go) semantics table, and the typestate
# analyzer's fixtures (poollife, handlestate and ownxfer, one per rule
# family, plus the clean Port->Link->Host hand-off), then the packet
# pool's checkdebug poison tests — the runtime tripwire behind the static
# exactly-once-free proof — in both build-tag modes, and the pooled
# workload runs (request, data and ACK paths) under that tripwire.
typestate-smoke:
	$(GO) test -run 'JoinEnv|MergeAtJoin|LoopWidening|FlowWalker|Fixtures/(poollife|handlestate|ownxfer|ownclean)' ./internal/lint
	$(GO) test -tags checkdebug ./internal/packet ./internal/workload
	$(GO) test ./internal/packet

check: build vet fmt-check lint typestate-smoke race fault-smoke sweep-smoke oracle-smoke perf-smoke report-smoke

# Fault-injection smoke: a full-mix faulted sweep must complete, stay
# deterministic, conserve every packet/byte, and keep DCTCP+ no worse than
# DCTCP per fault class (the resilience gate behind EXPERIMENTS.md).
fault-smoke:
	$(GO) test -run 'Faulted|Conservation|Resilience|RequestRetry' \
		./internal/fault ./internal/exp ./internal/workload

# Sweep-orchestration smoke: run a tiny grid through cmd/incast twice
# against the same cache, the second pass with -resume. It must be pure
# cache replay (100% hit rate) and its aggregate table must be
# byte-identical to the first pass — the end-to-end guarantee behind
# internal/sweep's content-addressed cache.
sweep-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/incast" ./cmd/incast; \
	args="-q -name smoke -protocols dctcp+,dctcp -flows 20,40 -seeds 1,2 \
		-rounds 6 -warmup 2 -rtomin 10ms -cache-dir $$dir/cache"; \
	"$$dir/incast" $$args >"$$dir/first.txt"; \
	"$$dir/incast" $$args -resume >"$$dir/second.txt"; \
	grep -q "0 run, 8 cached (hit rate 100%)" "$$dir/second.txt" || { \
		echo "sweep-smoke: second pass was not pure cache replay:"; \
		cat "$$dir/second.txt"; exit 1; }; \
	sed -n '1,/^$$/p' "$$dir/first.txt" >"$$dir/first.tbl"; \
	sed -n '1,/^$$/p' "$$dir/second.txt" >"$$dir/second.tbl"; \
	cmp -s "$$dir/first.tbl" "$$dir/second.tbl" || { \
		echo "sweep-smoke: cached aggregates differ from first pass:"; \
		diff "$$dir/first.tbl" "$$dir/second.tbl"; exit 1; }; \
	echo "sweep-smoke: 8/8 cache hits, aggregates byte-identical"

# Trace-oracle conformance smoke: the rule-level oracle tests, the full
# protocol × fault-class matrix (TestOracleMatrix), the metamorphic harness
# and the ten-point reproduction grid of the repacketized-repair finding
# (TestOracleRepairClippedAtMaxSent: TCP at N=8/20, seeds 1-5, RTOmin 10ms,
# 30 rounds; a sender that re-cuts a repair past the highest byte it sent
# fails it) must run violation-free, then the incast command's -oracle gate
# must pass a faulted multi-protocol grid end to end. On violation the
# command writes the minimized event-window trace to $(ORACLE_TRACE),
# which CI uploads as the failure artifact.
ORACLE_TRACE ?= oracle-violations.txt
oracle-smoke:
	$(GO) test ./internal/oracle
	$(GO) test -run 'Oracle' ./internal/exp ./internal/sweep
	$(GO) run ./cmd/incast -protocols tcp,dctcp,dctcp+,d2tcp+ -flows 48 \
		-rounds 4 -warmup 1 -faults all -oracle -oracle-trace $(ORACLE_TRACE) >/dev/null
	@echo "oracle-smoke: protocol x fault matrix oracle-clean"

# Benchmarks with the alloc column: the sim, netsim and tcp hot paths and
# the oracle's per-event cost (BenchmarkCheckerPacket/Probe, ns per
# observed event) must report 0 allocs/op (the AllocsPerRun tests in those
# packages pin it).
bench:
	$(GO) test -bench=. -benchmem ./internal/sim ./internal/netsim ./internal/tcp ./internal/oracle

# Just the allocation-budget regression tests, without the benchmarks
# (internal/netsim and internal/tcp: a port hop and a steady-state transfer
# allocate nothing, also with an obs.Sink subscriber attached — the
# TestObserved*AllocBudget cases; internal/workload: an incast round must
# not allocate per flow, a §VI-D query not at all, and the mix's Start
# (TestBenchmarkStartAllocBudget) a fixed count whatever its arrival count,
# leaving one queued event per traffic class; internal/exp: a
# sweep-shaped job on a warm rig stays within TestRigJobAllocBudget's
# pinned budget, and an observed run's allocations and bytes grow with its
# rounds only by its queue samples, 4 bytes each; internal/trace: the queue
# sampler allocates per sample block, not per tick, and 4 bytes per sample;
# internal/telemetry: an instrument lookup that hits allocates nothing;
# internal/oracle: TestCheckerAllocFree — observing a packet event or a
# processed-ACK probe allocates nothing once a flow's models are warm;
# internal/packet: TestFlowTableGetAllocFree — a flow-table lookup, hit or
# miss, allocates nothing).
alloc-check:
	$(GO) test -run 'AllocBudget|AllocFree' ./internal/sim ./internal/netsim ./internal/tcp ./internal/workload ./internal/exp ./internal/trace ./internal/telemetry ./internal/oracle ./internal/packet

# The benchmark's own smoke (cmd/perf at 1/50 scale: all five workloads,
# their output checks, every twin run's digest against its facade's). `race`
# cannot cover it — cmd/perf's child-process tests skip under -race.
perf-smoke:
	$(GO) run ./cmd/perf -smoke

# Battery smoke: the whole report at 4 rounds (every catalogue entry, the
# resilience table included; about a minute per pass) must reproduce its
# committed output byte for byte, the wall-time line aside — at -jobs 1 and
# again at -jobs 2. Each pool worker runs its points on one reused rig, so
# the two widths give the points different run histories: a reset that
# leaks state from one run into the next shows up here. A third pass runs
# five entries alone through -only (Figs. 2, 9, 11 + 12, 13 and 14 — the
# single-figure runs): each must print its golden block byte for byte. A
# behavioural change shows up as a diff of
# cmd/report/testdata/battery_r4.golden — regenerate it with the first
# command below (-jobs 1) and review that diff like code.
report-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/report" ./cmd/report; \
	for jobs in 1 2; do \
		"$$dir/report" -rounds 4 -warmup 1 -seed 1 -faults -jobs $$jobs \
			| grep -v '^report completed in ' >"$$dir/battery.txt"; \
		diff cmd/report/testdata/battery_r4.golden "$$dir/battery.txt" || { \
			echo "report-smoke: the battery's output moved at -jobs $$jobs (see the diff above)"; exit 1; }; \
	done; \
	"$$dir/report" -only "figure 2,figure 9,figures 11,figure 13,figure 14" -rounds 4 -warmup 1 -seed 1 -jobs 2 \
		| grep -v '^report completed in ' >"$$dir/only.txt"; \
	test "$$(grep -Ec '^-+$$' "$$dir/only.txt")" -eq 5 || { \
		echo "report-smoke: -only did not print the five sections it names:"; cat "$$dir/only.txt"; exit 1; }; \
	awk 'NR == FNR { if ($$0 ~ /^-+$$/) want[prev] = 1; prev = $$0; next } \
		{ line[++n] = $$0 } \
		END { keep = 1; for (i = 1; i <= n; i++) { \
			if (line[i] == "" && line[i+2] ~ /^-+$$/) keep = (line[i+1] in want); \
			if (keep || i == n) print line[i] } }' \
		"$$dir/only.txt" cmd/report/testdata/battery_r4.golden >"$$dir/want.txt"; \
	diff "$$dir/want.txt" "$$dir/only.txt" || { \
		echo "report-smoke: a section run through -only differs from its golden block (see the diff above)"; exit 1; }; \
	echo "report-smoke: battery output byte-identical to battery_r4.golden at -jobs 1 and 2, and through -only"

clean:
	$(GO) clean ./...
