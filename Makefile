# Convenience targets for the parsec-go reproduction.

GO ?= go

.PHONY: all build vet test race bench bench-quick bench-e2e bench-kernels lint fig9 traces profile faults tune sched-conformance netrun-conformance real-dist serve-smoke ccload examples clean

all: build vet test lint

# Source and documentation hygiene: gofmt-clean files (any file gofmt
# lists fails the target), then cmd/mdlint: Markdown links, the Go
# identifiers and repo paths the live docs name, and godoc coverage.
# The benchmark harness is a module of its own that `vet` below never
# sees; vetting it here makes an API change that breaks it fail in
# seconds, before bench-quick runs it.
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/mdlint .
	$(GO) -C bench vet ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository's benchmark (BENCHMARK.json, bench/) is a module of its
# own, so `go test ./...` and `go build ./...` above never see it.
# bench-quick runs the harness's own tests and a two-jobs-per-workload
# smoke with the correctness gate on (under a minute); bench-e2e is the
# full run: five workloads, every end-to-end metric, 15 s each.
bench-quick:
	$(GO) -C bench test ./...
	$(GO) -C bench run . -quick

bench-e2e:
	$(GO) -C bench run .

# Re-run the dense-kernel sweep and diff it against the committed
# BENCH_kernels.json baseline: >10% ns/op regressions on matching rows
# fail the target (rows are skipped when arch/cpus/tier differ from the
# baseline machine). Writes the fresh sweep to bench_kernels_new.json;
# promote it with `cp bench_kernels_new.json BENCH_kernels.json` after an
# intentional kernel change.
bench-kernels:
	$(GO) run ./cmd/ccsim kernels -out bench_kernels_new.json -baseline BENCH_kernels.json

# The paper's headline experiment (Fig 9) at full scale.
fig9:
	$(GO) run ./cmd/ccsim fig9 -out fig9.csv

# The trace experiments (Figs 10-13).
traces:
	$(GO) run ./cmd/ccsim trace -variants v4 -svg trace_v4.svg
	$(GO) run ./cmd/ccsim trace -variants v2 -svg trace_v2.svg
	$(GO) run ./cmd/ccsim trace -variants original -svg trace_original.svg

# Observability profiles (histograms, idle bubbles, critical path).
profile:
	$(GO) run ./cmd/ccsim profile -out profile.json

# Seeded fault-injection sweep; regenerates docs/faults.json.
faults:
	$(GO) run ./cmd/ccsim faults

# Simulator-guided recipe autotuning at paper scale (beta-carotene,
# 32 nodes x 7 cores); regenerates docs/tune.json bit-identically for
# the committed seed. Started from v1, the search must end at or below
# hand-derived v5's makespan or the target fails.
tune:
	$(GO) run ./cmd/ccsim tune

# Scheduling-core conformance: the real runtime, the simulator, and the
# socket runtime must take identical scheduling decisions
# (internal/sched/conformance_test.go), and a queue set that adopts a
# plan's sorted ready run must decide what one that pushed every task
# decides — the simulator preloads, so its decisions are replayed
# against a pushing shadow core on the dispatch-shaped CCSD graph too.
# What the schedule decides for a
# real execution's inputs rides along, under the same race detector:
# blocks fill once on ga_access and retire on the last ga_release
# (internal/ga), the resident set is the variant's read-ahead window
# (internal/ccsd), and the streamed energy folds in the pinned order
# (internal/tce). The DTD engine embeds the same executor with its own
# completion logic (internal/dtd); like the other embedder seams its
# tests run five times under the race detector. Execute runs on
# execution contexts kept from job to job: a reset tracker, runner and
# store must hold what new ones hold (internal/ptg, internal/runtime,
# internal/ga), and contexts shared by concurrent, canceled and failing
# runs of several plans must carry nothing from one run to the next —
# that stress test runs five times.
sched-conformance:
	$(GO) test -race -run 'TestPopOrderEquivalence|TestSimexecDecisionsMatchShadowModel|TestSetPreloadMatchesPushAll|TestStealVictimGolden|TestInterNodeStealInvariants' ./internal/sched
	$(GO) test -race -run 'TestTrackerResetIsFresh' ./internal/ptg
	$(GO) test -race -run 'TestRunnerRunsLikeANewRun' ./internal/runtime
	$(GO) test -race -run 'TestLazy|TestEagerReleaseIsNoOp|TestNewLazyNeverRetires|TestStoreResetKeepsOneRun' ./internal/ga
	$(GO) test -race -run 'TestInputsFlowThroughGraph|TestCancelledRunLeaksNothing|TestWarmExecuteAllocatesAThird' ./internal/ccsd
	$(GO) test -race -count=5 -run 'TestContextsCarryNothingBetweenRuns' ./internal/ccsd
	$(GO) test -race -run 'TestEnergyStreamsBitwise|TestEnergyDimsMismatchPanics|TestInputTablesMatchWorkload' ./internal/tce
	$(GO) test -race -count=5 ./internal/dtd

# Distributed-runtime conformance: wire-codec round-trips, the in-process
# socket backends, the multi-process benzene acceptance run, and the
# kill/sever chaos run, all under the race detector, plus a short fuzz of
# the frame decoder (internal/netrun). A rank's message handlers push
# into, and take from, an executor whose workers may all be parked, and
# the ranks of one process bind one compiled plan's skeleton at once;
# the tests that live on those seams run five more times. So do the ones
# that lose frames whose tiles are on loan to a channel (seeded drops, a
# link severed mid-burst): a retransmission reads the tile again; the
# ones where the coordinator misbehaves (a bogus register off the wire)
# or dies under its ranks, or a rank dies with no takeover to save the
# run; and the input-replica ones: every block
# crosses to a rank once and is adopted on arrival, and a hostile
# replica tag fails the rank.
netrun-conformance:
	$(GO) test -race -count=1 ./internal/netrun
	$(GO) test -race -count=5 -run 'TestRunThreeRanksPerWorkerSteal|TestCancel|TestProcessChaosKillAndSever|TestOnePlanThreeBackends|TestRunWithSeveredLink|TestBorrowedFramesSurviveLoss|TestHealthyLinkSendsNothingTwice|TestRedialResendsWindowInOrder|TestRanksExitWhenCoordinatorDies|TestKilledRankFailsRunWithoutRecover|TestRegisterValidatesRank|TestReplicaFramesMatchPlan|TestTaggedActivationValidates' ./internal/netrun
	$(GO) test -race -count=5 -run 'TestExecutorForeignPushWhileParked' ./internal/runtime
	$(GO) test -run FuzzDecodeFrame -fuzz FuzzDecodeFrame -fuzztime 15s ./internal/netrun

# Multi-process distributed smoke: benzene with real arithmetic across 3
# worker processes; energies must match the single-process runtime to a
# relative 1e-12 (ccsd.EnergyTol).
real-dist:
	$(GO) run ./cmd/ccsim real-dist -ranks 3

# Service smoke, under the race detector. The service's own tests drive
# the acceptance surface over real HTTP: cold job then identical cached
# job (must skip inspection+planning), cancellation of queued and
# running jobs, queue-full 429 backpressure, and a draining shutdown.
# Then the restart-recovery test: a journaled child ccsimd is SIGKILLed
# with jobs in every state and restarted; terminal results must come
# back verbatim, interrupted jobs must re-execute to bitwise-identical
# energies, and a large job must run across 2 netrun worker processes.
serve-smoke:
	$(GO) test -race -count=1 -run 'Recovery' ./cmd/ccsimd
	$(GO) test -race -count=1 ./internal/serve

# Service load test: mixed preset/variant workload against an
# in-process server; reports throughput, cache hit rate, cold vs cached
# latency percentiles, and checks per-key energy agreement.
ccload:
	$(GO) run ./cmd/ccload -clients 4 -jobs 24

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ccsd_t2_7
	$(GO) run ./examples/inspector

clean:
	rm -f fig9.csv trace_*.svg test_output.txt bench_output.txt bench_kernels_new.json
