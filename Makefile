# Tier-1 verification for the branchprof repo.
#
#   make verify   build + full test suite + vet + race on the
#                 concurrency-bearing packages (engine, exp) + chaos
#   make test     build + full test suite only
#   make race     the race step alone (-short skips the full-matrix
#                 identity tests, which re-run un-raced under `make test`;
#                 the race detector still covers Collect's worker pool
#                 and every cache path via the package's other tests)
#   make chaos    the fault-injection matrix under the race detector,
#                 run twice (-count=2) to shake out ordering luck; -short
#                 keeps the full-matrix degraded tests in `make test`
#   make obs      the observability golden tests (byte-exact trace,
#                 Prometheus and folded-stack output under a stepped
#                 clock) raced and repeated to catch ordering luck
#   make chaos-server  branchprofd under the race detector: burst
#                 shedding, graceful drain, the circuit-breaker fault
#                 matrix, and the cross-process file locks
#   make soak     the sharded-store soak under the race detector:
#                 concurrent batch + streaming + single-profile ingest,
#                 prediction and health reads while one shard's disk
#                 fails — its breaker must open alone and the drain
#                 must keep every healthy shard's profiles
#   make soak-cluster  the replication convergence soak under the race
#                 detector: a three-node journaling cluster under
#                 concurrent ingest with one node crash-killed by a
#                 failpoint mid-stream-ingest and a partition that
#                 heals mid-run; healthy nodes must serve with no 5xx,
#                 the dead node's restart must replay exactly its
#                 acknowledged journal records, and all nodes must
#                 converge to bit-identical snapshots
#   make crash    the write-ahead journal's crash-consistency proof
#                 under the race detector: the wal package suite plus
#                 TestCrashRecoveryMatrix, which kills the server at
#                 every journal operation (append, sync, save,
#                 truncate, replay) under every ingest path and
#                 requires acknowledged-exactly-once accounting after
#                 recovery; see docs/ROBUSTNESS.md "Durability contract"
#   make fuzz     10s smoke of each native fuzz target (compiler,
#                 assembler, profile DB decoder, run-cache decoder,
#                 VM differential); longer runs: make fuzz FUZZTIME=5m
#   make gencheck the generated-code freshness gate: regenerating the
#                 compiled workload bodies must leave the tree clean,
#                 and the generated package (plus the generator) must
#                 be vet-clean; part of `make verify`
#   make bench    the paired interpreter/codegen comparison, then the
#                 cold vs warm cache benchmark pair, the raw
#                 interpreter benchmark and the predictor-zoo
#                 simulation throughput, each appended to the
#                 BENCH_VM.json trajectory (one entry per build;
#                 see docs/PERF.md)
#   make bench-codegen  the codegen speedup booking alone: BENCHPAIRS
#                 alternating interpreter/codegen invocation pairs on
#                 the li sievel workload, appended to BENCH_VM.json
#                 with the interpreter lines embedded as the baseline
#   make bench-server  cmd/loadgen drives a sharded branchprofd over
#                 loopback — single vs batch vs streaming ingest — and
#                 appends the result to the BENCH_SERVER.json trajectory;
#                 a second pass runs the same workload hash-routed
#                 across a replicated three-node cluster (-nodes 3), so
#                 the trajectory also tracks replication's ingest cost;
#                 further passes journal through the write-ahead log
#                 under each fsync policy (-wal-fsync record/batch/
#                 interval), so the trajectory prices durability too
#   make bench-smoke  one-iteration run of the interpreter and codegen
#                 benchmarks, the predictor-zoo throughput benchmark,
#                 the static-vs-dynamic study (one shared traced replay)
#                 and the three compile-variant studies (Table 1, the
#                 inlining ablation, the select study; each on a fresh
#                 engine), part of `make verify` so the perf harness
#                 can't rot

GO ?= go
FUZZTIME ?= 10s
BENCHCOUNT ?= 3
BENCHPAIRS ?= 3
BENCHLABEL ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

.PHONY: verify test vet race chaos obs chaos-server soak soak-cluster crash fuzz gencheck bench bench-codegen bench-server bench-smoke

verify: test vet gencheck race chaos obs chaos-server soak soak-cluster crash fuzz bench-smoke

test:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gencheck proves the committed generated workload bodies are fresh:
# regenerating them must be a no-op against the working tree, and the
# generated package must be vet-clean on its own.
gencheck:
	$(GO) generate ./internal/workloads/compiled
	git diff --exit-code -- internal/workloads/compiled
	$(GO) vet ./internal/workloads/compiled/ ./internal/vm/codegen/...

race:
	$(GO) test -race -short ./internal/engine/... ./internal/exp/... \
		./internal/dynpred/... ./internal/runlength/...

chaos:
	$(GO) test -race -count=2 -short -run 'Fault|Degraded|Cancel|Retry|Torn|Corrupt|Partial' \
		./internal/faults/... ./internal/engine/... ./internal/exp/... \
		./internal/ifprob/... ./internal/predict/... ./internal/vm/...

obs:
	$(GO) test -race -count=2 -run 'Obs|Golden|Trace|Metric|Span|Prom|Chrome|Sample|Folded|Serve' \
		./internal/obs/... ./internal/engine/... ./internal/vm/...
	$(GO) test -race -count=2 -run 'ZeroBranch|SafeJSON|MarshalSafe|EncodeSafe|ZeroExec' \
		./internal/exp/... ./internal/predict/... ./internal/breaks/...

chaos-server:
	$(GO) test -race -count=1 ./internal/server/... ./internal/flock/...

soak:
	$(GO) test -race -count=1 -run 'TestSoak|TestDifferential' ./internal/server/ ./internal/store/...

soak-cluster:
	$(GO) test -race -count=2 -run 'TestSoakClusterConvergence|TestSync' ./internal/server/

crash:
	$(GO) test -race -count=1 -run 'TestCrashRecoveryMatrix|TestWAL|TestManifest' \
		./internal/server/ ./internal/store/wal/ ./internal/store/shardstore/

fuzz:
	$(GO) test -run xxx -fuzz FuzzCompile$$ -fuzztime $(FUZZTIME) ./internal/mfc/
	$(GO) test -run xxx -fuzz FuzzAssemble -fuzztime $(FUZZTIME) ./internal/asm/
	$(GO) test -run xxx -fuzz FuzzDBLoad -fuzztime $(FUZZTIME) ./internal/ifprob/
	$(GO) test -run xxx -fuzz FuzzCacheDecode -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run xxx -fuzz FuzzVMDifferential -fuzztime $(FUZZTIME) ./internal/vm/

bench: bench-codegen
	$(GO) test -run xxx -bench 'BenchmarkSuiteCollect(Cold|Warm)' -benchtime 3x .
	$(GO) test -run xxx -bench 'BenchmarkVMInterpreter$$' -benchtime 10x -count $(BENCHCOUNT) . \
		| $(GO) run ./cmd/benchjson -append -label $(BENCHLABEL) -o BENCH_VM.json
	$(GO) test -run xxx -bench 'BenchmarkPredictorZoo$$' -benchtime 10x -count $(BENCHCOUNT) . \
		| $(GO) run ./cmd/benchjson -append -label $(BENCHLABEL)-predzoo -o BENCH_VM.json

# bench-codegen books the interpreter → codegen speedup with the
# paired protocol the PR 5 baseline used: BENCHPAIRS alternating
# invocation pairs (interpreter, then codegen) so thermal and
# scheduler drift land on both sides evenly; the interpreter lines
# become the entry's embedded baseline and speedup_x is the geomean
# ratio. One command, reproducible: make bench-codegen.
bench-codegen:
	@rm -f .bench-interp.tmp .bench-codegen.tmp
	for i in $$(seq $(BENCHPAIRS)); do \
		$(GO) test -run '^$$' -bench 'BenchmarkVMInterpreter$$' -benchtime 10x . | tee -a .bench-interp.tmp && \
		$(GO) test -run '^$$' -bench 'BenchmarkVMCodegen$$' -benchtime 10x . | tee -a .bench-codegen.tmp || exit 1; \
	done
	$(GO) run ./cmd/benchjson -append -label $(BENCHLABEL)-codegen \
		-baseline .bench-interp.tmp -o BENCH_VM.json \
		-note "paired $(BENCHPAIRS)x alternating interpreter/codegen, li sievel" \
		< .bench-codegen.tmp
	@rm -f .bench-interp.tmp .bench-codegen.tmp

bench-server:
	$(GO) run ./cmd/loadgen -rounds $(BENCHCOUNT) \
		| $(GO) run ./cmd/benchjson -append -label $(BENCHLABEL) -o BENCH_SERVER.json
	$(GO) run ./cmd/loadgen -rounds $(BENCHCOUNT) -nodes 3 \
		| $(GO) run ./cmd/benchjson -append -label $(BENCHLABEL)-routed3 -o BENCH_SERVER.json
	$(GO) run ./cmd/loadgen -rounds $(BENCHCOUNT) -wal-fsync record \
		| $(GO) run ./cmd/benchjson -append -label $(BENCHLABEL)-wal-record -o BENCH_SERVER.json
	$(GO) run ./cmd/loadgen -rounds $(BENCHCOUNT) -wal-fsync batch \
		| $(GO) run ./cmd/benchjson -append -label $(BENCHLABEL)-wal-batch -o BENCH_SERVER.json
	$(GO) run ./cmd/loadgen -rounds $(BENCHCOUNT) -wal-fsync interval \
		| $(GO) run ./cmd/benchjson -append -label $(BENCHLABEL)-wal-interval -o BENCH_SERVER.json

bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkVM(Interpreter|Codegen)$$|BenchmarkPredictorZoo$$|BenchmarkStaticVsDynamic$$|BenchmarkTable1DeadCode$$|BenchmarkInlineAblation$$|BenchmarkSelectStudy$$' -benchtime 1x .
