package cluster

// Regression tests of the placement reconciler: every factor push carries
// the values-epoch of the factors it ships, and a free reaches every replica
// position of its key and is never undone by a copy pushed back.

import (
	"context"
	"testing"
	"time"

	"sstar"
	"sstar/client"
	"sstar/internal/server"
)

// solveAt solves against handle id on the shard at addr itself (no router,
// no redirect): the probe for "what does this copy answer".
func solveAt(t *testing.T, addr string, id uint64, b []float64) []float64 {
	t.Helper()
	p := server.NewPool("tcp", 0, 1, 0)
	defer p.Close()
	resp, _, err := p.Call(context.Background(), addr, &server.Request{Op: server.OpSolve, Handle: id, B: b})
	if err == nil {
		err = resp.Error()
	}
	if err != nil {
		t.Fatalf("solve handle %d on %s: %v", id, addr, err)
	}
	return resp.X
}

// valEpochOn returns the values-epoch server s holds for handle id (0 when
// it holds none).
func valEpochOn(s *server.Server, id uint64) uint64 {
	for _, e := range s.Manifest() {
		if e.Handle == id {
			return e.ValEpoch
		}
	}
	return 0
}

// TestWritePushCarriesValuesEpoch: a refactorize pushed after a sweep must
// land on the replica with the owner's values-epoch. A write push that
// dropped the epoch landed as epoch 1 and was refused as stale once a sweep
// had installed a newer copy, leaving the replica on old factors until the
// next sweep.
func TestWritePushCarriesValuesEpoch(t *testing.T) {
	const interval = 100 * time.Millisecond
	fleet := startFleetWith(t, 2, ShardConfig{RepairInterval: interval})
	sys := buildSystem(t, 6)
	ctx := context.Background()

	c, err := client.Dial("tcp", fleet.raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, _, err := c.Factorize(ctx, sys.a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	values := func(step int) []float64 {
		v := append([]float64(nil), sys.a.Val...)
		for i := range v {
			v[i] *= 1 + 0.01*float64(step)
		}
		return v
	}
	for step := 1; step <= 3; step++ {
		if _, err := h.Refactorize(ctx, values(step)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "placement after three refactorizes", func() bool {
		return pendingZero(fleet) && len(PlacementViolations(fleet.shards)) == 0
	})
	time.Sleep(2 * interval) // at least one sweep over the converged fleet

	if _, err := h.Refactorize(ctx, values(4)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ReplicationPending == 0", func() bool { return pendingZero(fleet) })

	owner := fleet.ownerIndex(h.Key())
	replica := 1 - owner
	oe, re := valEpochOn(fleet.servers[owner], h.ID()), valEpochOn(fleet.servers[replica], h.ID())
	if oe != 5 || re != oe {
		t.Errorf("values-epoch owner %d, replica %d; want 5 on both", oe, re)
	}
	if n := fleet.servers[replica].Stats().StaleReplicas; n != 0 {
		t.Errorf("replica refused %d pushes as stale, want 0", n)
	}
	xo := solveAt(t, fleet.peers[owner], h.ID(), sys.b)
	xr := solveAt(t, fleet.peers[replica], h.ID(), sys.b)
	if !bitIdentical(xo, xr) {
		t.Error("replica solve differs bitwise from the owner's: the replica holds old factors")
	}
}

func pendingZero(f *testFleet) bool {
	for _, s := range f.servers {
		if s.Stats().ReplicationPending != 0 {
			return false
		}
	}
	return true
}

// TestFreeReachesEveryReplica: with three copies, a free through the owner
// must release the handle on all three shards for good. A free forwarded to
// the first successor only left the third copy, and that copy's sweep
// restored the owner (a missing owner copy never means "freed" to a replica)
// and the owner then restored the rest.
func TestFreeReachesEveryReplica(t *testing.T) {
	const interval = 100 * time.Millisecond
	fleet := startFleetWith(t, 3, ShardConfig{Replicas: 3, RepairInterval: interval})
	sys := buildSystem(t, 7)

	c, err := client.Dial("tcp", fleet.raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, _, err := c.Factorize(context.Background(), sys.a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "three copies", func() bool { return holders(fleet, h.ID()) == 3 })

	freeAt(t, fleet.peers[fleet.ownerIndex(h.Key())], h)
	time.Sleep(4 * interval)
	if n := holders(fleet, h.ID()); n != 0 {
		t.Errorf("%d shards hold the freed handle after %v of sweeps, want 0", n, 4*interval)
	}
}

// TestFreeOnReplicaWins: a client free that lands on a replica (the owner
// was unreachable, say) is not forwarded, so the owner's sweep finds the
// replica's copy missing and pushes it back. The replica refuses the push
// (its free is final) and the owner then frees its own copy too.
func TestFreeOnReplicaWins(t *testing.T) {
	const interval = 100 * time.Millisecond
	fleet := startFleetWith(t, 2, ShardConfig{RepairInterval: interval})
	sys := buildSystem(t, 8)

	c, err := client.Dial("tcp", fleet.raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, _, err := c.Factorize(context.Background(), sys.a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "two copies", func() bool { return holders(fleet, h.ID()) == 2 })
	freeAt(t, fleet.peers[1-fleet.ownerIndex(h.Key())], h)
	waitFor(t, "the free to win on the owner", func() bool { return holders(fleet, h.ID()) == 0 && pendingZero(fleet) })
}

// holders counts the shards holding handle id.
func holders(f *testFleet, id uint64) (n int) {
	for _, s := range f.servers {
		if s.HasHandle(id) {
			n++
		}
	}
	return n
}

// freeAt frees h on the shard at addr itself.
func freeAt(t *testing.T, addr string, h *client.Handle) {
	t.Helper()
	p := server.NewPool("tcp", 0, 1, 0)
	defer p.Close()
	resp, _, err := p.Call(context.Background(), addr, &server.Request{Op: server.OpFree, Handle: h.ID(), Key: h.Key()})
	if err == nil {
		err = resp.Error()
	}
	if err != nil {
		t.Fatalf("free on %s: %v", addr, err)
	}
}
