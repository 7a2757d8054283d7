# Tier-1 verification for the branchprof repo.
#
#   make verify   build + full test suite + vet + race on the
#                 concurrency-bearing packages (engine, exp) + chaos
#   make test     build + full test suite only
#   make race     the race step alone (-short skips the full-matrix
#                 identity tests, which re-run un-raced under `make test`;
#                 the race detector still covers Collect's worker pool
#                 and every cache path via the package's other tests)
#   make chaos    the fault-injection matrix (and cache eviction racing
#                 reads) under the race detector,
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
#                 VM differential, program digest against its
#                 per-field reference, traced-replay entry decoder);
#                 longer runs: make fuzz FUZZTIME=5m
#   make gencheck the generated-code freshness gate: regenerating the
#                 compiled workload bodies must leave the tree clean,
#                 and the generated package (plus the generator) must
#                 be vet-clean; part of `make verify`
#   make bench-smoke  one-iteration run of the interpreter and codegen
#                 benchmarks, the predictor-zoo throughput benchmark,
#                 the static-vs-dynamic study (one shared traced replay,
#                 then read back from a warm cache directory)
#                 and the three compile-variant studies (Table 1, the
#                 inlining ablation, the select study; each on a fresh
#                 engine), and the compiler over all 60 builds of a
#                 paper pass with its allocations, part of
#                 `make verify` so the perf harness can't rot

GO ?= go
FUZZTIME ?= 10s

.PHONY: verify test vet race chaos obs chaos-server soak soak-cluster crash fuzz gencheck bench-smoke

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
	$(GO) test -race -count=2 -short -run 'Fault|Degraded|Cancel|Retry|Torn|Corrupt|Partial|Evict' \
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
	$(GO) test -run xxx -fuzz FuzzProgramDigest -fuzztime $(FUZZTIME) ./internal/isa/
	$(GO) test -run xxx -fuzz FuzzReplayDecode -fuzztime $(FUZZTIME) ./internal/exp/

bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkVM(Interpreter|Codegen)$$|BenchmarkPredictorZoo$$|BenchmarkStaticVsDynamic$$|BenchmarkStaticVsDynamicCached$$|BenchmarkTable1DeadCode$$|BenchmarkInlineAblation$$|BenchmarkSelectStudy$$|BenchmarkCompileAllWorkloads$$' -benchtime 1x .
