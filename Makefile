# CI entry points for the TCP-fairness reproduction.
#
#   make ci         — everything below, in order (what a PR must pass)
#   make lint       — formatting (gofmt) and static analysis (go vet)
#   make vet        — static analysis only
#   make build      — compile all packages and commands
#   make test       — full suite under the race detector (covers the
#                     experiment worker pool in internal/experiment/runner.go
#                     and runs every audited/metamorphic suite)
#   make allocs     — zero-allocation event-core gates; built with !race
#                     (the race runtime changes the allocation profile).
#                     Auditing and tracing are off here: the gates prove the
#                     auditor and the telemetry tracer cost nothing when
#                     disabled (TestAllocGuardTracingDisabled pins the same
#                     ≤1 alloc/packet budget with the trace knobs present).
#   make audit      — targeted invariant-auditor suites: conservation across
#                     all AQMs, seeded-bug detection, violation-to-result
#                     plumbing, metamorphic relations
#   make resilience — fault-injection shape suite: flap recovery, bursty-loss
#                     inversion, deterministic replay, runner hardening
#   make smoke      — end-to-end sweeps through cmd/sweep in a private temp
#                     dir with -audit and -strict: a fault sweep (flap preset,
#                     4 cheap configs) and a 3-hop parking-lot topology sweep;
#                     any errored or checkpoint-skipped config fails the target
#   make smoke-svc  — end-to-end sweepd service check (scripts/smoke_svc.sh):
#                     daemon on an ephemeral port, served sweep byte-identical
#                     to a direct CLI run (modulo wall_ns), repeated POST
#                     coalesced with zero new simulations, cache hits visible
#                     on /metrics, a -duration override re-simulated (never
#                     served stale cache), journal compacted on shutdown
#   make smoke-cluster — crash-tolerance check of sweepd cluster mode
#                     (scripts/smoke_cluster.sh): coordinator + 3 workers on
#                     ephemeral ports, one worker SIGKILLed mid-grid, sweep
#                     completes with results byte-identical to a direct
#                     single-process run (modulo wall_ns), every config
#                     uploaded exactly once, re-queue/death counters visible
#                     on /metrics, per-worker journals folded by sweepd -merge,
#                     graceful worker stop releases leases (never expiry)
#   make smoke-chaos — durability check of sweepd under injected faults
#                     (scripts/smoke_chaos.sh): coordinator with journal
#                     fsync failures armed + workers in crash-restart loops
#                     killed by a designated poison config; the poison is
#                     quarantined after 3 crashes, the other results stay
#                     byte-identical to a direct sweep, the journal degrades
#                     and recovers, and a post-run sweepd -fsck finds the
#                     compacted journal clean
#   make smoke-fct  — end-to-end open-loop FCT check (scripts/smoke_fct.sh):
#                     a small mixed mice grid swept directly and through
#                     sweepd (byte-identical modulo wall_ns), solo baselines
#                     auto-appended, per-size-class FCT percentiles in every
#                     result, and the harm-to-FCT matrix rendered by both
#                     cmd/report and the daemon's /report endpoint
#   make smoke-obs  — end-to-end fairness-observatory check
#                     (scripts/smoke_obs.sh): tcpfair -fairness prints a
#                     finite convergence time for a homogeneous CUBIC pair
#                     and exactly one starvation episode (cubic victim, bbr1
#                     culprit) for BBRv1-vs-CUBIC in a 4xBDP FIFO; a
#                     fairness-armed sweep stays byte-identical science to a
#                     plain one; sweepd's /fairness stream matches the local
#                     `sweep -fairness-out` NDJSON byte for byte; the
#                     convergence histogram and build_info gauge appear on
#                     /metrics; cmd/report renders the fairness-dynamics
#                     table and cmd/timeline the jain(t) sparkline
#   make trace-smoke— end-to-end flight-recorder check (scripts/smoke_trace.sh):
#                     tcpfair -telemetry-out records a run, cmd/timeline
#                     renders cwnd + queue-occupancy timelines from it,
#                     sweep -trace-dir writes per-config traces, sweepd -trace
#                     serves the same stream over /v1/sweeps/{id}/trace, and
#                     a traced sweep stays byte-identical to an untraced one
#   make fuzz-smoke — every fuzz target for a short budget, seeded from the
#                     checked-in corpora under */testdata/fuzz
#   make bench      — engine micro-benchmarks (0 allocs/op on reuse paths)
#   make bench-ruler — vet and short-test the bench/ module (its own go.mod,
#                     so ./... never compiles it) against the current internals
#   make bench-save — record the benchmark trajectories (events/sec,
#                     ns/event, allocs/packet) into BENCH_topo.json (dumbbell
#                     and a 3-hop parking lot), BENCH_fct.json (open-loop
#                     mice churn, competition and solo) and BENCH_obs.json
#                     (fairness observatory off vs armed); run on a quiet host
#   make bench-gate — replay the trajectory and fail on regression: allocs
#                     strictly, speed within a 5× host-variance tolerance

GO ?= go
FUZZTIME ?= 10s

.PHONY: ci lint vet build test allocs audit resilience smoke smoke-svc smoke-cluster smoke-chaos smoke-fct smoke-obs trace-smoke fuzz-smoke bench bench-ruler bench-save bench-gate

ci: lint build test allocs bench-ruler bench-gate audit resilience smoke smoke-svc smoke-cluster smoke-chaos smoke-fct smoke-obs trace-smoke fuzz-smoke

lint: vet
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt: needs formatting:"; echo "$$fmt"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

allocs:
	$(GO) test -run 'TestAllocGuard' -v .
	$(GO) test -run xxx -bench 'BenchmarkEngineHandlerChained|BenchmarkTimerReset|BenchmarkLineDelivery' -benchmem ./internal/sim/

audit:
	$(GO) test -race -v -run 'TestAudit|TestViolation|TestMetamorphic|TestDropAccountingAllAQMs|TestCheckpointLastWriteWins' ./internal/audit/ ./internal/sim/ ./internal/netem/ ./internal/experiment/

resilience:
	$(GO) test -race -v -run 'TestFlapRecoveryAllCCAs|TestGELossInversionBBRvLossBased|TestFaultedRunDeterminism|TestFaultProfileInResultIdentity|TestRunAllSurvivesPanic|TestRunAllWatchdogAbort|TestCheckpointResume' ./internal/experiment/
	$(GO) test -race -run 'TestRTOExponentialBackoffDoubling|TestRTORearmAfterSuccessfulRetransmit' ./internal/tcp/

smoke:
	@tmp=$$(mktemp -d) || exit 1; \
	$(GO) run ./cmd/sweep -faults flap -configs 4 -bws 100Mbps -queues 2 \
		-duration 6s -quiet -audit -strict \
		-checkpoint $$tmp/fault-smoke.ckpt.jsonl -out $$tmp/fault-smoke.json && \
	$(GO) run ./cmd/sweep -topo parking-lot-3 -bws 100Mbps -queues 2 -aqms fifo \
		-pairings cubic:cubic -duration 4s -quiet -audit -strict \
		-out $$tmp/topo-smoke.json; \
	rc=$$?; rm -rf "$$tmp"; exit $$rc

smoke-svc:
	GO="$(GO)" sh scripts/smoke_svc.sh

smoke-cluster:
	GO="$(GO)" sh scripts/smoke_cluster.sh

smoke-chaos:
	GO="$(GO)" sh scripts/smoke_chaos.sh

smoke-fct:
	GO="$(GO)" sh scripts/smoke_fct.sh

smoke-obs:
	GO="$(GO)" sh scripts/smoke_obs.sh

trace-smoke:
	GO="$(GO)" sh scripts/smoke_trace.sh

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFaultsParse -fuzztime $(FUZZTIME) ./internal/faults/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointReload -fuzztime $(FUZZTIME) ./internal/experiment/
	$(GO) test -run '^$$' -fuzz FuzzJournalV2Reload -fuzztime $(FUZZTIME) ./internal/experiment/
	$(GO) test -run '^$$' -fuzz FuzzAQMQueueOps -fuzztime $(FUZZTIME) ./internal/aqm/
	$(GO) test -run '^$$' -fuzz FuzzConnAckProcessing -fuzztime $(FUZZTIME) ./internal/tcp/
	$(GO) test -run '^$$' -fuzz FuzzParseNDJSON -fuzztime $(FUZZTIME) ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz FuzzTopoSpec -fuzztime $(FUZZTIME) ./internal/topo/
	$(GO) test -run '^$$' -fuzz FuzzFlowSpecParse -fuzztime $(FUZZTIME) ./internal/flows/

bench:
	$(GO) test -run xxx -bench 'BenchmarkEngine|BenchmarkTimer|BenchmarkLine' -benchmem ./internal/sim/

bench-ruler:
	cd bench && $(GO) vet . && $(GO) test -short .

bench-save:
	BENCH_SAVE=1 $(GO) test -run 'TestBenchTopoTrajectory|TestBenchFCTTrajectory|TestBenchObsTrajectory' -v .

bench-gate:
	$(GO) test -run 'TestBenchTopoTrajectory|TestBenchFCTTrajectory|TestBenchObsTrajectory' -v .
