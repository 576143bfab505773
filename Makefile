GO ?= go
SERVE_ADDR ?= 127.0.0.1:7071

.PHONY: check tier1 build test race chaos cluster cluster-churn fuzz bench-kernels bench-blocking benchpar bench-analyze bench-tenants bench-churn serve loadtest trace

check: ## gofmt + vet + build + tests + race detector (CI gate)
	sh scripts/check.sh

tier1: ## vet + build + full tests (the quick must-stay-green gate)
	sh scripts/tier1.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race . ./internal/machine ./internal/core ./internal/xblas ./internal/server ./internal/obs ./client ./internal/cluster ./internal/symbolic ./internal/supernode

chaos: ## fault-injection suite: chaos conn/proxy tests + the end-to-end kill/restart workload, race detector on
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -race -count=1 -run 'TestChaosEndToEnd' -timeout 600s ./internal/server
	$(GO) test -race -count=1 -run 'TestClusterChaosFailover' -timeout 600s ./internal/cluster

cluster: ## the sharded-cluster suite: ring placement, redirects, replication failover, scatter, chaos e2e — race detector on
	$(GO) test -race -count=1 -timeout 600s ./internal/cluster

cluster-churn: ## the self-healing suite: membership churn property test + kill/rejoin and partition e2e — race detector on
	$(GO) test -race -count=1 -run 'TestChurnConvergence|TestSelfHealKillRejoinE2E|TestClusterPartitionHeal' -timeout 600s ./internal/cluster

fuzz: ## short fuzz smokes over the wire codec, the server request/response decoders and the replication payload decoders (Load, LoadAnalysis)
	$(GO) test -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzRequestDecode$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzRedirectDecode$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzMembershipDecode$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime=10s -fuzzminimizetime=0 .
	$(GO) test -run='^$$' -fuzz='^FuzzLoadAnalysis$$' -fuzztime=10s -fuzzminimizetime=0 .

bench-kernels: ## regenerate the tracked kernel benchmark report
	$(GO) run ./cmd/sstar-bench -experiment kernels -out BENCH_kernels.json

bench-blocking: ## refresh the fixed-vs-adaptive blocking section of BENCH_kernels.json
	$(GO) run ./cmd/sstar-bench -experiment blocking -out BENCH_kernels.json

benchpar: ## regenerate the tracked host-parallel factorization speedup report
	$(GO) run ./cmd/sstar-bench -experiment hostpar -out BENCH_hostpar.json

bench-analyze: ## refresh the cold_analysis section of BENCH_service.json (cold-start churn + seq/par/incremental analyze)
	$(GO) run ./cmd/sstar-load -cold -nx 100 -clients 4 -duration 10s -out BENCH_service.json

bench-tenants: ## refresh the multi_tenant section of BENCH_service.json (per-tenant solve tails: coalescing off/on, then + a weight-1 factorize storm)
	$(GO) run ./cmd/sstar-load -tenants 3 -clients 16 -workers 2 -duration 3s -nx 48 -coalesce-window 2ms -out BENCH_service.json

bench-churn: ## refresh the availability section of BENCH_service.json (kill/rejoin rounds: failover, repair, rejoin-converged latency)
	$(GO) run ./cmd/sstar-load -churn -rounds 3 -out BENCH_service.json

trace: ## record a Chrome trace of a small parallel factorization and validate it
	$(GO) run ./cmd/sstar-bench -trace trace.json -matrix jpwh991 -scale 0.5 -procs 4
	$(GO) run ./scripts/checktrace trace.json

serve: ## run the sparse-solve service on $(SERVE_ADDR)
	$(GO) run ./cmd/sstar-serve -tcp $(SERVE_ADDR)

loadtest: ## regenerate the tracked service benchmark report (in-process server)
	$(GO) run ./cmd/sstar-load -clients 8 -duration 5s -patterns 2 -check -out BENCH_service.json
