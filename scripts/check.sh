#!/bin/sh
# Repo-wide checks: formatting, vet, build, full tests, then the race
# detector over the packages with real concurrency (the virtual machine, the
# shared-memory kernels with the task-DAG executor, the solver service with
# its client, and the facade that drives the parallel factorization). Run
# from the repo root; exits nonzero on the first failure.
set -eux

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...
go test -race . ./internal/machine ./internal/core ./internal/xblas ./internal/server ./internal/obs ./client ./internal/chaos ./internal/cluster ./internal/symbolic ./internal/supernode

# Chaos suite: the full client -> fault proxy -> server stack with a
# mid-workload server kill/restart; every completed solve must be
# bit-identical and nothing may leak. Bounded: ~10-20s under -race.
go test -race -count=1 -run 'TestChaosEndToEnd' -timeout 600s ./internal/server

# Cluster chaos suite: three shards behind fault-injecting proxies with one
# killed mid-workload; zero failed solves, bit-identical answers, and no
# refactorization on failover.
go test -race -count=1 -run 'TestClusterChaosFailover' -timeout 600s ./internal/cluster

# Self-healing suite (make cluster-churn): the membership churn property
# test (any join/leave/kill sequence converges to an empty manifest diff
# with every key at min(R, live) copies) plus the kill/rejoin and partition
# e2e tests — owner dies mid-workload behind fault proxies, replica is
# promoted, the rejoined member is repopulated by repair without ever
# refactorizing.
make cluster-churn

# Fuzz smoke: the frame codec and the request/response decoders (gob and the
# hot-path binary layout, through ReadRequest/ReadResponse) face the raw
# network and must never panic; a few seconds of fuzzing guards the
# invariant without stalling CI (longer runs: make fuzz).
go test -run='^$' -fuzz='^FuzzReadFrame$' -fuzztime=5s ./internal/wire
go test -run='^$' -fuzz='^FuzzRequestDecode$' -fuzztime=5s ./internal/server
go test -run='^$' -fuzz='^FuzzRedirectDecode$' -fuzztime=5s ./internal/server
go test -run='^$' -fuzz='^FuzzMembershipDecode$' -fuzztime=5s ./internal/server
# Replicas install whatever a replication push carries through Load and
# LoadAnalysis; these targets re-checksum every mutated frame so the fuzzer
# reaches the decoders' structure checks. Their inputs are multi-KB framed
# gob streams, and minimizing each new one would outlast the smoke, so
# minimization is off.
go test -run='^$' -fuzz='^FuzzLoad$' -fuzztime=5s -fuzzminimizetime=0 .
go test -run='^$' -fuzz='^FuzzLoadAnalysis$' -fuzztime=5s -fuzzminimizetime=0 .

# Observability overhead guard: the disabled instrumentation path (no
# Observer, stats off) must stay allocation-free in the kernels and the
# obs primitives.
go test -run 'ZeroAlloc' -count=1 ./internal/obs ./internal/xblas

# Multi-tenant smoke: two zipf-skewed tenants through the coalescing server
# with a weight-1 factorize storm. The bench itself hard-fails unless the
# server attributes every tenant's traffic to its per-tenant counters; the
# greps pin the per-tenant tails and the storm accounting in the report.
go run ./cmd/sstar-load -tenants 2 -clients 8 -workers 2 -duration 1s -nx 20 -coalesce-window 1ms -out /tmp/sstar_tenant_smoke.json
grep -q '"tenant": "tenant-1"' /tmp/sstar_tenant_smoke.json
grep -q '"storm_factorizes"' /tmp/sstar_tenant_smoke.json
