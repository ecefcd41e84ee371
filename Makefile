# CI entry points for the TCP-fairness reproduction; `make help` lists them.
# The smoke targets each run one scenario of scripts/smoke.sh, whose
# comments state every scenario's contract.

GO ?= go
FUZZTIME ?= 10s

# The tests, benchmarks and fuzz targets the gates below select by name.
# `go test -run NAME` passes with "no tests to run" when NAME matches
# nothing, so gate-names (run by lint) fails on any name here that matches
# no test in its packages.
ALLOC_TESTS = TestAllocGuard|TestBench
ALLOC_BENCHES = BenchmarkEngineHandlerChained|BenchmarkTimerReset|BenchmarkLineDelivery
BENCHES = BenchmarkEngine|BenchmarkTimer|BenchmarkLine
AUDIT_PKGS = ./internal/audit/ ./internal/sim/ ./internal/netem/ ./internal/topo/ ./internal/experiment/
AUDIT_TESTS = TestAudit|TestViolation|TestMetamorphic|TestDropAccountingAllAQMs|TestCheckpointLastWriteWins
RESILIENCE_EXPERIMENT = TestFlapRecoveryAllCCAs|TestGELossInversionBBRvLossBased|TestFaultedRunDeterminism|TestFaultProfileInResultIdentity|TestRunAllSurvivesPanic|TestRunAllWatchdogAbort|TestCheckpointResume|TestCheckpointHealsFailedAppend|TestCheckpointCompactSkipsCleanJournal|TestJournal|TestFsckJournal
RESILIENCE_SVC = TestWarmJobLeavesJournalAlone|TestCluster|TestLocalWorkerOutlivesLeaseTTL|TestAcquireTakesOnlyWhatItGrants|TestPoolCloseFailsQueuedWork
RESILIENCE_TCP = TestRTOExponentialBackoffDoubling|TestRTORearmAfterSuccessfulRetransmit
# fuzz-target:package
FUZZ_TARGETS = FuzzFaultsParse:./internal/faults/ FuzzCheckpointReload:./internal/experiment/ \
	FuzzJournalV2Reload:./internal/experiment/ FuzzAQMQueueOps:./internal/aqm/ \
	FuzzConnAckProcessing:./internal/tcp/ FuzzParseNDJSON:./internal/telemetry/ \
	FuzzTopoSpec:./internal/topo/ FuzzFlowSpecParse:./internal/flows/

.PHONY: ci help lint vet gate-names build cross test allocs audit resilience smoke smoke-svc smoke-cluster smoke-chaos smoke-fct smoke-obs trace-smoke fuzz-smoke bench bench-ruler

ci: lint build cross test allocs bench-ruler audit resilience smoke smoke-svc smoke-cluster smoke-chaos smoke-fct smoke-obs trace-smoke fuzz-smoke ## every gate below, in order (what a PR must pass)

help: ## list the targets
	@awk -F ':.*## ' '/^[a-z-]+:.*## / { printf "  %-14s %s\n", $$1, $$2 }' $(MAKEFILE_LIST)

lint: vet gate-names ## gofmt, go vet, gate names, and a syntax check of scripts/smoke.sh
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt: needs formatting:"; echo "$$fmt"; exit 1; fi
	sh -n scripts/smoke.sh

vet: ## go vet only
	$(GO) vet ./...

gate-names: ## every name the allocs, bench, audit, resilience and fuzz-smoke gates select matches a test
	GO="$(GO)" sh scripts/gatenames.sh \
		. '$(ALLOC_TESTS)' \
		./internal/sim/ '$(ALLOC_BENCHES)|$(BENCHES)' \
		'$(AUDIT_PKGS)' '$(AUDIT_TESTS)' \
		./internal/experiment/ '$(RESILIENCE_EXPERIMENT)' \
		./internal/svc/ '$(RESILIENCE_SVC)' \
		./internal/tcp/ '$(RESILIENCE_TCP)' \
		$(foreach t,$(FUZZ_TARGETS),$(word 2,$(subst :, ,$(t))) $(word 1,$(subst :, ,$(t))))

build: ## compile all packages and commands
	$(GO) build ./...

cross: ## cross-builds: arm64 vet (asmdecl checks the PRFM prefetch) and build, riscv64 (no-op prefetch), no fused multiply-add on any of four GOARCHes
	GOARCH=arm64 $(GO) vet ./internal/sim && GOARCH=arm64 $(GO) build ./...
	GOARCH=riscv64 $(GO) build ./...
	@# Go may fuse x*y+z into one instruction where the hardware has one, so
	@# the same run would round differently by architecture; float64(x*y)
	@# rounds the product and keeps it unfused (Go spec, Arithmetic operators).
	@for arch in arm64 ppc64le riscv64 s390x; do \
		asm=$$(GOARCH=$$arch $(GO) build -gcflags=-S ./... 2>&1) || { echo "$$asm" | tail -20; exit 1; }; \
		fused=$$(echo "$$asm" | grep -E '\)[[:space:]]FN?M(ADD|SUB)[SD]?[[:space:]]' | \
			sed -nE 's|.*\($(CURDIR)/([^)]*\.go:[0-9]+)\).*|\1|p' | sort -u -t: -k1,1 -k2,2n); \
		if [ -n "$$fused" ]; then \
			echo "GOARCH=$$arch: fused multiply-add at (round the product with float64(...)):"; \
			echo "$$fused"; exit 1; \
		fi; \
		echo "GOARCH=$$arch: no fused multiply-add"; \
	done

test: ## full suite under the race detector
	$(GO) test -race ./...

allocs: ## zero-alloc event-core gates and the exact-count rails (non-race build)
	$(GO) test -run '$(ALLOC_TESTS)' -v .
	$(GO) test -run xxx -bench '$(ALLOC_BENCHES)' -benchmem ./internal/sim/

audit: ## invariant-auditor suites: conservation, packet-pool balance, seeded bugs, metamorphic relations
	$(GO) test -race -v -run '$(AUDIT_TESTS)' $(AUDIT_PKGS)

resilience: ## fault-injection suites: flap recovery, bursty loss, replay, runner hardening, journal heal and compaction, lease expiry, worker death, stealing, release and quarantine
	$(GO) test -race -v -run '$(RESILIENCE_EXPERIMENT)' ./internal/experiment/
	$(GO) test -race -v -run '$(RESILIENCE_SVC)' ./internal/svc/
	$(GO) test -race -run '$(RESILIENCE_TCP)' ./internal/tcp/

smoke: ## audited -strict sweeps: a flap-fault grid and a parking-lot grid
	GO="$(GO)" sh scripts/smoke.sh sweep

smoke-svc: ## sweepd: served = direct, repeats coalesce, cache hits, journal compacted
	GO="$(GO)" sh scripts/smoke.sh svc

smoke-cluster: ## coordinator + 3 workers, one SIGKILLed mid-grid; served = direct
	GO="$(GO)" sh scripts/smoke.sh cluster

smoke-chaos: ## fsync faults + a poison config: quarantine, recovery, fsck-clean journal
	GO="$(GO)" sh scripts/smoke.sh chaos

smoke-fct: ## mice grid: solo baselines, FCT percentiles, harm matrix, served = direct
	GO="$(GO)" sh scripts/smoke.sh fct

smoke-obs: ## fairness observatory: convergence, starvation, served = local stream
	GO="$(GO)" sh scripts/smoke.sh obs

trace-smoke: ## flight recorder: record, render, per-config traces, served stream
	GO="$(GO)" sh scripts/smoke.sh trace

fuzz-smoke: ## every fuzz target for FUZZTIME (10s), seeded from */testdata/fuzz
	@for t in $(FUZZ_TARGETS); do \
		echo "$(GO) test -run '^\$$' -fuzz $${t%%:*} -fuzztime $(FUZZTIME) $${t#*:}"; \
		$(GO) test -run '^$$' -fuzz $${t%%:*} -fuzztime $(FUZZTIME) $${t#*:} || exit 1; \
	done

bench: ## engine micro-benchmarks (0 allocs/op on reuse paths)
	$(GO) test -run xxx -bench '$(BENCHES)' -benchmem ./internal/sim/

bench-ruler: ## vet and short-test the bench/ module against the current internals
	cd bench && $(GO) vet . && $(GO) test -short .
