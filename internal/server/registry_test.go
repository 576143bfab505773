package server

import (
	"errors"
	"testing"
	"time"

	"sstar"
)

// testHandle returns a real (small) factorization wrapped as a registry
// handle. The registry only consults bytes() and identity, so one
// factorization can back many handles.
func testHandle(t *testing.T) *handle {
	t.Helper()
	a := sstar.GenGrid2D(4, 4, false, sstar.GenOptions{Seed: 1})
	f, err := sstar.Factorize(a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return &handle{f: f, n: a.N, rowPtr: a.RowPtr, colInd: a.ColInd}
}

// TestRegistryLRUOrder: under budget pressure the victim is the
// least-recently-*used* handle, not the least-recently-added one.
func TestRegistryLRUOrder(t *testing.T) {
	h := testHandle(t)
	// Budget fits exactly two of these handles.
	r := newRegistry(2*h.bytes(), 0)
	id1 := r.add(h)
	id2 := r.add(h)
	// Touch id1: id2 becomes the LRU entry.
	if _, err := r.get(id1); err != nil {
		t.Fatal(err)
	}
	id3 := r.add(h)
	if _, err := r.get(id2); !errors.Is(err, sstar.ErrHandleEvicted) {
		t.Fatalf("LRU victim id2: err %v, want ErrHandleEvicted", err)
	}
	for _, id := range []uint64{id1, id3} {
		if _, err := r.get(id); err != nil {
			t.Fatalf("handle %d gone: %v", id, err)
		}
	}
	if n, bytes, ev := r.stats(); n != 2 || bytes != 2*h.bytes() || ev != 1 {
		t.Fatalf("stats after eviction: n=%d bytes=%d ev=%d", n, bytes, ev)
	}
}

// TestRegistryOversizedHandleSurvivesItsOwnInsert: one handle larger than the
// whole budget still registers (evicting everything else), because refusing
// it would make big systems unsolvable rather than merely lonely.
func TestRegistryOversizedHandleSurvivesItsOwnInsert(t *testing.T) {
	h := testHandle(t)
	r := newRegistry(h.bytes()/2, 0)
	id := r.add(h)
	if _, err := r.get(id); err != nil {
		t.Fatalf("over-budget handle evicted by its own insertion: %v", err)
	}
	id2 := r.add(h)
	if _, err := r.get(id); !errors.Is(err, sstar.ErrHandleEvicted) {
		t.Fatalf("previous handle survived a second over-budget insert: %v", err)
	}
	if _, err := r.get(id2); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryTTLSweepInjectedClock: sweep evicts exactly the handles idle
// past the TTL under a controlled clock.
func TestRegistryTTLSweepInjectedClock(t *testing.T) {
	h := testHandle(t)
	r := newRegistry(0, 100*time.Millisecond)
	now := time.Unix(1000, 0)
	r.clock = func() time.Time { return now }

	idle := r.add(h)
	kept := r.add(h)
	now = now.Add(70 * time.Millisecond)
	if _, err := r.get(kept); err != nil {
		t.Fatal(err)
	}
	now = now.Add(60 * time.Millisecond) // idle is 130ms old, kept 60ms
	if n := r.sweep(); n != 1 {
		t.Fatalf("sweep evicted %d handles, want 1", n)
	}
	if _, err := r.get(idle); !errors.Is(err, sstar.ErrHandleEvicted) {
		t.Fatalf("idle handle: err %v, want ErrHandleEvicted", err)
	}
	if _, err := r.get(kept); err != nil {
		t.Fatalf("recently used handle swept: %v", err)
	}
}

// TestRegistryFreeLeavesNoTombstone: free means "gone by design" — later use
// is the caller's bug and reads as an unknown handle, not an eviction.
func TestRegistryFreeLeavesNoTombstone(t *testing.T) {
	h := testHandle(t)
	r := newRegistry(0, 0)
	id := r.add(h)
	if err := r.free(id); err != nil {
		t.Fatal(err)
	}
	if err := r.free(id); !errors.Is(err, sstar.ErrBadHandle) {
		t.Fatalf("double free: err %v, want ErrBadHandle", err)
	}
	if _, err := r.get(id); !errors.Is(err, sstar.ErrBadHandle) {
		t.Fatalf("freed handle: err %v, want ErrBadHandle", err)
	}
}

// TestRegistryTombstonesBounded: after far more evictions than the tombstone
// bound, old evictions degrade to ErrBadHandle and the tombstone memory stays
// capped — precision is traded, correctness is not.
func TestRegistryTombstonesBounded(t *testing.T) {
	h := testHandle(t)
	r := newRegistry(1, 0) // every insert evicts the previous handle
	first := r.add(h)
	for i := 0; i < maxTombstones+50; i++ {
		r.add(h)
	}
	if len(r.tombQ) > maxTombstones || len(r.tombs) > maxTombstones {
		t.Fatalf("tombstones unbounded: q=%d set=%d", len(r.tombQ), len(r.tombs))
	}
	if _, err := r.get(first); !errors.Is(err, sstar.ErrBadHandle) {
		t.Fatalf("expired tombstone: err %v, want degraded ErrBadHandle", err)
	}
	// A recent eviction is still classified precisely.
	recent := r.add(h)
	r.add(h)
	if _, err := r.get(recent); !errors.Is(err, sstar.ErrHandleEvicted) {
		t.Fatalf("recent eviction: err %v, want ErrHandleEvicted", err)
	}
}

// TestRegistryFreedTombstoneOutlivesReinstall: an id evicted, re-installed
// by a replication push and then freed is queued as a tombstone twice. The
// older queue entry must not expire the newer freed tombstone: a stray push
// arriving within the bound must still be refused.
func TestRegistryFreedTombstoneOutlivesReinstall(t *testing.T) {
	h := testHandle(t)
	r := newRegistry(0, 0)
	id := r.add(h)
	r.mu.Lock()
	r.evict(r.live[id])
	r.mu.Unlock()
	if err := r.put(id, h); err != nil {
		t.Fatalf("push after eviction: %v", err)
	}
	if err := r.free(id); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxTombstones-1; i++ {
		if err := r.free(r.add(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.put(id, h); !errors.Is(err, sstar.ErrBadHandle) {
		t.Fatalf("push of a freed id within the tombstone bound: err %v, want ErrBadHandle", err)
	}
	if len(r.tombQ) > maxTombstones || len(r.tombs) > maxTombstones {
		t.Fatalf("tombstones unbounded: q=%d set=%d", len(r.tombQ), len(r.tombs))
	}
}
