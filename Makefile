# CI entry points for the TCP-fairness reproduction; `make help` lists them.
# The smoke targets each run one scenario of scripts/smoke.sh, whose
# comments state every scenario's contract.

GO ?= go
FUZZTIME ?= 10s

.PHONY: ci help lint vet build cross test allocs audit resilience smoke smoke-svc smoke-cluster smoke-chaos smoke-fct smoke-obs trace-smoke fuzz-smoke bench bench-ruler

ci: lint build cross test allocs bench-ruler audit resilience smoke smoke-svc smoke-cluster smoke-chaos smoke-fct smoke-obs trace-smoke fuzz-smoke ## every gate below, in order (what a PR must pass)

help: ## list the targets
	@awk -F ':.*## ' '/^[a-z-]+:.*## / { printf "  %-14s %s\n", $$1, $$2 }' $(MAKEFILE_LIST)

lint: vet ## gofmt, go vet, and a syntax check of scripts/smoke.sh
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt: needs formatting:"; echo "$$fmt"; exit 1; fi
	sh -n scripts/smoke.sh

vet: ## go vet only
	$(GO) vet ./...

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
	$(GO) test -run 'TestAllocGuard|TestBench' -v .
	$(GO) test -run xxx -bench 'BenchmarkEngineHandlerChained|BenchmarkTimerReset|BenchmarkLineDelivery' -benchmem ./internal/sim/

audit: ## invariant-auditor suites: conservation, packet-pool balance, seeded bugs, metamorphic relations
	$(GO) test -race -v -run 'TestAudit|TestViolation|TestMetamorphic|TestDropAccountingAllAQMs|TestCheckpointLastWriteWins' ./internal/audit/ ./internal/sim/ ./internal/netem/ ./internal/topo/ ./internal/experiment/

resilience: ## fault-injection suites: flap recovery, bursty loss, replay, runner hardening, journal heal and compaction
	$(GO) test -race -v -run 'TestFlapRecoveryAllCCAs|TestGELossInversionBBRvLossBased|TestFaultedRunDeterminism|TestFaultProfileInResultIdentity|TestRunAllSurvivesPanic|TestRunAllWatchdogAbort|TestCheckpointResume|TestCheckpointHealsFailedAppend|TestCheckpointCompactSkipsCleanJournal' ./internal/experiment/
	$(GO) test -race -v -run 'TestWarmJobLeavesJournalAlone' ./internal/svc/
	$(GO) test -race -run 'TestRTOExponentialBackoffDoubling|TestRTORearmAfterSuccessfulRetransmit' ./internal/tcp/

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
	$(GO) test -run '^$$' -fuzz FuzzFaultsParse -fuzztime $(FUZZTIME) ./internal/faults/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointReload -fuzztime $(FUZZTIME) ./internal/experiment/
	$(GO) test -run '^$$' -fuzz FuzzJournalV2Reload -fuzztime $(FUZZTIME) ./internal/experiment/
	$(GO) test -run '^$$' -fuzz FuzzAQMQueueOps -fuzztime $(FUZZTIME) ./internal/aqm/
	$(GO) test -run '^$$' -fuzz FuzzConnAckProcessing -fuzztime $(FUZZTIME) ./internal/tcp/
	$(GO) test -run '^$$' -fuzz FuzzParseNDJSON -fuzztime $(FUZZTIME) ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz FuzzTopoSpec -fuzztime $(FUZZTIME) ./internal/topo/
	$(GO) test -run '^$$' -fuzz FuzzFlowSpecParse -fuzztime $(FUZZTIME) ./internal/flows/

bench: ## engine micro-benchmarks (0 allocs/op on reuse paths)
	$(GO) test -run xxx -bench 'BenchmarkEngine|BenchmarkTimer|BenchmarkLine' -benchmem ./internal/sim/

bench-ruler: ## vet and short-test the bench/ module against the current internals
	cd bench && $(GO) vet . && $(GO) test -short .
