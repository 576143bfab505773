#!/bin/sh
# Tier-1 gate: the minimal must-stay-green checks run on every change —
# static analysis, a clean build, and the full test suite. The heavier CI
# gate (race detector, chaos suite, fuzz smokes, formatting) lives in
# check.sh; tier-1 is the subset quick enough to run before every commit.
set -eux

go vet ./...
go build ./...
go test ./...

# The benchmark under perfbench/ is a separate module (replace sstar => ../),
# so the root build never compiles it; vet and build it here so an API break
# in client/, internal/cluster/ or internal/server/ fails before benchmark
# time. -o /dev/null keeps the binary out of the checkout.
(cd perfbench && go vet ./... && go build -o /dev/null ./...)

# The cluster package is all cross-shard concurrency (the placement
# reconciler's dirty set and passes racing live writes, failover,
# scatter/gather, and the self-healing machinery: heartbeat loops,
# membership merges); its suite is fast
# enough to run under the race detector on every commit. The symbolic and
# supernode packages carry the
# parallel analyze stages (subtree workers, candidate sweep, block builds)
# whose byte-identity contract the race detector must see exercised. The
# client shares the cluster's connection pool (internal/server/conn.go), so
# it runs under the race detector too.
go test -race ./client ./internal/cluster ./internal/symbolic ./internal/supernode

# The protocol codec (internal/server/codec.go) and the connection pool
# carry every exchange of the client, the router and shard RPC; their tests
# and the handshake refusal run under the race detector on every commit.
go test -race -run 'Codec|Pool|WrongProtocol' ./internal/server

# The factor layout (internal/supernode/layout.go) is built once per analysis
# by whichever factorization gets there first, and its slab and aliased index
# lists are shared by every later factorization, refactorization and decoded
# replica. The concurrent first use, the failed-refactorize semantics, the
# reference-builder equivalence and the decoded-factor checks run under the
# race detector on every commit.
go test -race -run 'TestConcurrentFirstFactorizeWith|TestFailedRefactorizeKeepsFactors|TestLoadRejectsInconsistentStructure|TestLayoutMatchesReferenceBuilder' . ./internal/core
