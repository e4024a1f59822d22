# Development targets for the Transaction Datalog engine.

GO ?= go

.PHONY: all build test test-short race check cover bench bench-compare bench-all recovery-bench obs-demo top-demo profile suite suite-quick examples demo fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The pre-merge gate: static checks (go vet + tdvet), the full test suite,
# and the race-instrumented run of the concurrency-heavy packages (the
# server and the database, which the interner and scan caches sit under,
# plus the lock-free metrics/histogram layer). The group-commit and hammer
# tests get an explicit race-instrumented pass with a longer count: they
# exercise the commit pipeline's cross-goroutine handoffs (flusher,
# waiters, lock-free validation) far harder than the rest of the suite; the
# answer-table tests ride along (the shared-store hammer, the isolation
# interleaving, and the differential-under-writes pair). The last two lines
# repeat the two tests that used to fail about once in 300 and once in 30
# runs (the barrier idiom's arrival marker; E4's model contest over three
# scheduling-dependent points) often enough to see either come back.
check: vet
	$(GO) test ./...
	$(GO) test -race ./internal/server ./internal/db ./internal/term ./internal/obs ./internal/history
	$(GO) test -race -count=2 -run 'TestGroupCommit|TestConcurrentTransfers|TestBankSerializabilityHammer|TestLabFlowSerializabilityHammer|TestMemoHitReadsAreValidated|TestMemoTableHammer|TestMemoDifferentialCorpusUnderWrites|FuzzMemoUnderWrites' ./internal/server ./internal/engine
	$(GO) test -race -count=2 -run 'TestCheckpoint|TestASOF|TestPersistentLSNs|TestCommitsFlowDuringCheckpoint' ./internal/db ./internal/server
	$(GO) test ./internal/idioms -run TestBarrierOrderingProperty -count=300
	$(GO) test ./internal/experiments -run TestAllExperimentsPassQuick -count=300

cover:
	$(GO) test -short -cover ./...

# Fixed-iteration run of the hot-path benchmarks, recorded as
# BENCH_PR$(N).json (N is the number of the PR being recorded; `make bench
# N=11` in a checkout of the parent commit writes the same-day baseline
# that bench-compare gates against) in three sections: "disabled"
# (observability instrumented but no tracing) — the prover steps (bank
# transfer, whole lab workflow, planned-vs-textual, tabled-vs-untabled,
# tabled calls between writes),
# the database churn pair, the simulator, and the in-process server
# workloads including the disjoint (a private account pair per client) and
# contended (shared accounts) pair, and the genome-lab workflow
# (BenchmarkServerLabFlow) —
# "durable" (real WAL + fsync per acknowledged commit, including the
# stage-sampled variant), "enabled" (full structured tracing into a
# sink), and "db" (a keyed table's Clone, whose B/op is the cost of a copy,
# and insert-probe-delete churn in first-argument buckets of 1, 64 and
# 4 096 rows, at 1 000 iterations because one Clone takes milliseconds).
# Durable throughput runs time-based (fsync cost varies too much
# across machines for a fixed iteration count). Fixed-iteration sections
# run -count=10, the durable section
# -count=5, and benchjson records the median repetition per benchmark:
# this shared VM's scheduling/fsync noise floor is wider than the
# bench-compare gate, and the median is the robust estimator that keeps
# one stall or one turbo window out of the committed record. benchjson -o
# writes each section via tmp+rename, so an interrupted recording never
# leaves a truncated artifact (the PR 8 recording died mid-pipe and left
# an empty file; the old `> tmp && mv` chain could not survive a failed
# producer).
N ?= 22
BENCH := BENCH_PR$(N).json
BENCH_PREV := BENCH_PR$(shell expr $(N) - 1).json

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkProverTransfer$$|BenchmarkProverLabFlow$$|BenchmarkProverPlanned$$|BenchmarkProverTabled$$|BenchmarkProverTabledChain$$|BenchmarkProverTabledUnderWrites$$|BenchmarkDBInsertDelete$$|BenchmarkSimLab$$|BenchmarkServerThroughput$$|BenchmarkServerThroughputDisjoint$$|BenchmarkServerThroughputContended$$|BenchmarkServerLabFlow$$' \
		-benchtime=10000x -count=10 -benchmem . | $(GO) run ./cmd/benchjson -label disabled -merge $(BENCH) -o $(BENCH)
	$(GO) test -run '^$$' -bench 'BenchmarkServerThroughputDurable$$|BenchmarkServerThroughputDurableSampled$$|BenchmarkServerThroughputDisjointDurable$$|BenchmarkServerThroughputContendedDurable$$' \
		-benchtime=4s -count=5 -benchmem . | $(GO) run ./cmd/benchjson -label durable -merge $(BENCH) -o $(BENCH)
	$(GO) test -run '^$$' -bench 'BenchmarkProverTransferTraced$$|BenchmarkServerThroughputTraced$$' \
		-benchtime=10000x -count=10 -benchmem . | $(GO) run ./cmd/benchjson -label enabled -merge $(BENCH) -o $(BENCH)
	$(GO) test -run '^$$' -bench 'BenchmarkDBClone$$|BenchmarkDBBucketChurn$$' \
		-benchtime=1000x -count=10 -benchmem . | $(GO) run ./cmd/benchjson -label db -merge $(BENCH) -o $(BENCH)
	@cat $(BENCH)

# Bounded-recovery numbers, recorded as BENCH_PR6.json: cold-start time
# over growing WAL histories, with and without an incremental checkpoint
# near the tail. The claim the JSON captures: with a checkpoint, ns/op
# stays flat as the history grows (replay is the constant post-checkpoint
# suffix); without one it grows linearly.
recovery-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRecovery' -benchtime=10x . \
		| $(GO) run ./cmd/benchjson -label recovery > BENCH_PR6.json
	@cat BENCH_PR6.json

# Gate this PR's committed numbers against the previous PR's: a section's
# geometric-mean ns/op ratio more than 10% slower fails the target, while
# single-benchmark regressions are printed but informational — identical
# code re-recorded minutes apart swings 10%+ on individual contended
# benchmarks on this VM, so only a systematic whole-section slowdown is
# actionable. The baseline is the record numbered N-1; recording both on
# the same day keeps host drift (fsync latency, allocator/GC throughput
# vary across recording days) out of the code delta. A section's geomean
# compares the benchmarks both records share.
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(BENCH_PREV) $(BENCH)

# Span-tree smoke test: prove the concurrent two-workflow goal with tracing
# on and check that the rendered tree shows the expected structure — iso
# sub-transactions inside concurrent branches, and the workflows' writes.
obs-demo:
	@set -e; out=$$($(GO) run ./cmd/tdlog -trace -goal "iso(flow(w1)) | iso(flow(w2))" testdata/workflow.td); \
	echo "$$out"; \
	for want in "iso" "branch" "ins.prepped(w1)" "ins.analyzed(w1)" "ins.recorded(w2)" "ins.finished(w2)"; do \
		echo "$$out" | grep -q "$$want" || { echo "obs-demo: span tree missing $$want" >&2; exit 1; }; \
	done; \
	echo "obs-demo: span tree shows all expected labels"

# Stage-attribution smoke test: an in-memory server with every-transaction
# sampling, SLOs, and prover profiling takes a bank load; tdtop -once must
# render the stage table, SLO burn, and prover profile, and tdlog -wide
# must tabulate the recorded wide events.
top-demo:
	$(GO) build -o /tmp/td-top-server ./cmd/tdserver
	$(GO) build -o /tmp/td-top ./cmd/tdtop
	@set -e; dir=$$(mktemp -d); \
	/tmp/td-top-server serve -addr 127.0.0.1:7393 -obs.sample 1 -obs.profile \
		-obs.slo "commit:5ms:0.999,fsync:20ms:0.99" -obs.jsonl $$dir/obs.jsonl & \
	pid=$$!; sleep 0.5; \
	/tmp/td-top-server bank -addr 127.0.0.1:7393 -clients 4 -txns 50; \
	out=$$(/tmp/td-top -addr 127.0.0.1:7393 -once); \
	echo "$$out"; \
	for want in "fsync_wait" "slo commit" "transfer" "commits/sec"; do \
		echo "$$out" | grep -q "$$want" || { echo "top-demo: tdtop output missing $$want" >&2; kill $$pid; exit 1; }; \
	done; \
	kill $$pid; \
	$(GO) run ./cmd/tdlog -wide $$dir/obs.jsonl | tail -2; \
	$(GO) run ./cmd/tdlog -wide $$dir/obs.jsonl | grep -q "transaction(s)" || { echo "top-demo: tdlog -wide saw no events" >&2; exit 1; }; \
	rm -rf $$dir; \
	echo "top-demo: stage attribution visible end to end"

# Every benchmark, default benchtime (exploratory; nothing recorded).
bench-all:
	$(GO) test -bench=. -benchmem .

# Run the bank load generator under the CPU profiler against a throwaway
# in-memory server; profiles land in /tmp/td-profile/.
profile:
	$(GO) build -o /tmp/td-profile-server ./cmd/tdserver
	@set -e; mkdir -p /tmp/td-profile; \
	/tmp/td-profile-server serve -addr 127.0.0.1:7392 & \
	pid=$$!; sleep 0.5; \
	/tmp/td-profile-server bank -addr 127.0.0.1:7392 -clients 8 -txns 200 \
		-cpuprofile /tmp/td-profile/bank.cpu.pprof -memprofile /tmp/td-profile/bank.mem.pprof; \
	kill $$pid; \
	echo "profiles written: /tmp/td-profile/bank.cpu.pprof /tmp/td-profile/bank.mem.pprof"; \
	echo "inspect with: go tool pprof -top /tmp/td-profile/bank.cpu.pprof"

# The full reproduction suite (EXPERIMENTS.md tables).
suite:
	$(GO) run ./cmd/tdbench

suite-quick:
	$(GO) run ./cmd/tdbench -quick

# Build and smoke-run every example program (directories without Go files,
# like examples/programs/ with its plain .td corpus, are skipped).
examples:
	$(GO) build ./examples/...
	@set -e; for d in examples/*/; do \
		ls $$d*.go >/dev/null 2>&1 || continue; \
		echo "== $$d"; \
		$(GO) run ./$$d; \
	done

# The tdserver acceptance demo: a durable server, 8 concurrent clients
# committing transfers, then a kill-and-restart recovery check.
demo:
	$(GO) build -o /tmp/td-demo-server ./cmd/tdserver
	@set -e; dir=$$(mktemp -d); \
	/tmp/td-demo-server serve -addr 127.0.0.1:7391 -snap $$dir/db.gob -wal $$dir/db.wal & \
	pid=$$!; sleep 0.5; \
	/tmp/td-demo-server bank -addr 127.0.0.1:7391 -clients 8 -txns 50; \
	kill -9 $$pid; sleep 0.3; \
	echo "== restart: recovering from WAL"; \
	/tmp/td-demo-server serve -addr 127.0.0.1:7391 -snap $$dir/db.gob -wal $$dir/db.wal & \
	pid=$$!; sleep 0.5; \
	/tmp/td-demo-server bank -addr 127.0.0.1:7391 -clients 8 -txns 25; \
	kill $$pid; rm -rf $$dir

fmt:
	gofmt -w .

# Static analysis: go vet over the Go code, tdvet (with warnings promoted
# to errors, and the tdplan planner exercised) over every shipped TD
# program. Intentional full-TD demonstrations carry % tdvet:ignore pragmas
# in the source. -plan under -q is silent on a clean corpus (plan
# diagnostics are info severity) but still runs the full adornment /
# reorder / certification pipeline, so a program the planner chokes on
# fails CI here rather than at server load.
TD_PROGRAMS := $(shell find testdata examples -name '*.td')

vet:
	$(GO) vet ./...
	$(GO) run ./cmd/tdvet -plan -q -Werror $(TD_PROGRAMS)

clean:
	$(GO) clean ./...
