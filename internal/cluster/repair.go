package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"sstar"
	"sstar/internal/server"
)

// Default cadences of the self-healing loops. Heartbeats are cheap (one
// small gob exchange per peer); the periodic sweep costs one manifest
// exchange per peer plus a local diff, so it runs an order of magnitude
// slower.
const (
	defaultHeartbeatInterval = 250 * time.Millisecond
	defaultRepairInterval    = 2 * time.Second
)

// mark is one dirty handle: a local write its responsible peers have not
// acknowledged yet. freed marks a free still to be forwarded.
type mark struct {
	key   uint64
	freed bool
}

// kick wakes the reconciler through ch without blocking: a kick during a
// running pass coalesces into one more pass.
func kick(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// pending counts the dirty plus in-flight entries:
// ServerStats.ReplicationPending.
func (sh *Shard) pending() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.dirty) + len(sh.dirtyAn) + sh.inflight
}

// The three triggers of a reconciler pass differ only in what they know and
// may do.
const (
	passWrites    = iota // a write kick (and the Close flush): the dirty entries only, no manifest exchange
	passRebalance        // a membership kick: every entry against fresh peer manifests; never drops
	passSweep            // the periodic tick: as passRebalance, plus the two-sweep stray drop
)

// repairLoop is the cluster's only placement mechanism: every push, free,
// promotion, demotion and drop happens in one of its passes. On Close it
// flushes the dirty set with one writes pass.
func (sh *Shard) repairLoop() {
	defer close(sh.repairDone)
	var tick <-chan time.Time
	if sh.cfg.RepairInterval > 0 {
		t := time.NewTicker(sh.cfg.RepairInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-sh.stop:
			sh.reconcile(passWrites)
			return
		case <-sh.kick:
			sh.reconcile(passWrites)
		case <-sh.rebalance:
			sh.reconcile(passRebalance)
		case <-tick:
			sh.reconcile(passSweep)
		}
	}
}

// reconcile is one pass. It takes the dirty set, decides every entry in
// scope with decide (a writes pass: the dirty handles; the other passes:
// every live handle), forwards the dirty frees and pushes the dirty
// analyses. Whatever fails goes back into the dirty set for the next kick or
// tick: each pass makes one attempt per push.
//
// A pass never drops anything it cannot prove is held elsewhere, and the
// push direction is always toward ring placement, so repeated passes
// monotonically converge the fleet to "every key on exactly its R
// responsible shards" (see DESIGN.md, "One placement reconciler").
func (sh *Shard) reconcile(kind int) {
	s := sh.srv.Load()
	if s == nil {
		return
	}
	sh.mu.Lock()
	dirty, dirtyAn := sh.dirty, sh.dirtyAn
	sh.dirty, sh.dirtyAn = make(map[uint64]mark), make(map[uint64]*sstar.Analysis)
	sh.inflight = len(dirty) + len(dirtyAn)
	sh.mu.Unlock()
	failed := make(map[uint64]mark)
	failedAn := make(map[uint64]*sstar.Analysis)
	defer func() {
		// A newer mark made during the pass supersedes a failed one.
		sh.mu.Lock()
		for id, m := range failed {
			if _, ok := sh.dirty[id]; !ok {
				sh.dirty[id] = m
			}
		}
		for key, an := range failedAn {
			if _, ok := sh.dirtyAn[key]; !ok {
				sh.dirtyAn[key] = an
			}
		}
		sh.inflight = 0
		sh.mu.Unlock()
	}()

	// A writes pass needs no manifest, local or remote: a dirty entry is
	// stale on its peers by definition. The other passes exchange one
	// manifest per peer, not per key.
	var peers map[string]map[uint64]server.ManifestEntry
	var local []server.ManifestEntry
	if kind == passWrites {
		for id, m := range dirty {
			if !m.freed {
				local = append(local, server.ManifestEntry{Handle: id, Key: m.key})
			}
		}
	} else {
		peers = sh.peerManifests()
		local = s.Manifest()
	}
	confirmed := make(map[uint64]struct{})
	for _, e := range local {
		m, marked := dirty[e.Handle]
		delete(dirty, e.Handle)
		if !sh.decide(s, e, marked && !m.freed, peers, confirmed) {
			failed[e.Handle] = mark{key: e.Key}
		}
	}
	// What is left of the dirty set is not live here. A freed handle is
	// released on every replica position; a stored one was evicted or
	// dropped since, and there is nothing left to push.
	for id, m := range dirty {
		if m.freed && !s.HasHandle(id) && !sh.forward(m.key, &server.Request{Op: server.OpFree, Handle: id, Key: m.key}) {
			failed[id] = m
		}
	}
	for key, an := range dirtyAn {
		var buf bytes.Buffer
		if err := an.Save(&buf); err != nil {
			sh.logf("cluster: serialize analysis %#x: %v", key, err)
			continue
		}
		if !sh.forward(key, &server.Request{Op: server.OpReplicateAnalysis, Key: key, Blob: buf.Bytes()}) {
			failedAn[key] = an
		}
	}
	if kind == passWrites {
		return
	}

	// Two-sweep drop rule: a stray is released only when every responsible
	// shard held a current copy on this pass AND the previous one — one
	// confirmation could race a concurrent eviction or a view still
	// converging; two consecutive confirmations spaced a repair interval
	// apart make the copies durable observations, not luck.
	if kind == passSweep {
		for id := range confirmed {
			if _, seen := sh.strayCand[id]; seen {
				if s.DropHandle(id) {
					sh.repairDrops.Add(1)
					sh.logf("cluster: %s: dropped stray handle %d (copies confirmed twice)", sh.cfg.Self, id)
				}
				delete(confirmed, id)
			}
		}
	}
	sh.strayCand = confirmed
}

// peerManifests fetches every other member's manifest. A nil map means the
// peer was unreachable: nothing can be confirmed against it this pass
// (pushes to it would fail anyway, drops must wait).
func (sh *Shard) peerManifests() map[string]map[uint64]server.ManifestEntry {
	_, members := sh.ring.View()
	peers := make(map[string]map[uint64]server.ManifestEntry, len(members))
	for _, m := range members {
		if m == sh.cfg.Self {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
		resp, _, err := sh.pool.Call(ctx, m, &server.Request{Op: server.OpManifest})
		cancel()
		if err != nil || resp.Err != "" {
			peers[m] = nil
			continue
		}
		mm := make(map[uint64]server.ManifestEntry, len(resp.Manifest))
		for _, e := range resp.Manifest {
			mm[e.Handle] = e
		}
		peers[m] = mm
	}
	return peers
}

// decide is the one per-entry placement decision, the same for all three
// triggers (DESIGN.md, "One placement reconciler"). Its inputs are the ring
// placement of e's key and what is known of each peer: a dirty entry is
// stale on every peer, a peer with no manifest is unknown, and a known peer
// is behind when it lacks e or holds an older values-epoch. The owner
// promotes its copy and pushes every position behind. A replica position
// sends a dirty entry to every other position; otherwise only the owner
// counts: pushed when behind (a missing owner copy never means "freed" — the
// owner may have restarted empty), demoted to when known and current. A
// stray is pushed to every responsible shard behind and joins confirmed when
// all are known and current. It reports false when a push failed.
func (sh *Shard) decide(s *server.Server, e server.ManifestEntry, dirty bool, peers map[string]map[uint64]server.ManifestEntry, confirmed map[uint64]struct{}) bool {
	reps := sh.ring.Replicas(e.Key, sh.cfg.Replicas)
	behind := func(m string) bool {
		if dirty {
			return true
		}
		pm := peers[m]
		if pm == nil {
			return false
		}
		pe, ok := pm[e.Handle]
		return !ok || pe.ValEpoch < e.ValEpoch
	}
	targets := reps
	switch pos := slices.Index(reps, sh.cfg.Self); {
	case pos == 0:
		if e.Replica && s.SetHandleRole(e.Handle, false) {
			sh.promotions.Add(1)
			sh.logf("cluster: %s: promoted handle %d (key %#x) to owner", sh.cfg.Self, e.Handle, e.Key)
		}
	case pos > 0 && !dirty:
		owner := reps[0]
		targets = reps[:1]
		if peers[owner] != nil && !behind(owner) && !e.Replica && s.SetHandleRole(e.Handle, true) {
			sh.demotions.Add(1)
			sh.logf("cluster: %s: demoted handle %d (key %#x) to replica of %s", sh.cfg.Self, e.Handle, e.Key, owner)
		}
	case pos < 0:
		held := len(reps) > 0
		for _, m := range reps {
			held = held && peers[m] != nil && !behind(m)
		}
		if held {
			confirmed[e.Handle] = struct{}{}
		}
	}
	var req *server.Request
	ok := true
	for _, m := range targets {
		if m == sh.cfg.Self || !behind(m) {
			continue
		}
		if req == nil {
			if req = s.ExportHandle(e.Handle); req == nil {
				return true // no longer live here: nothing to push
			}
		}
		if !dirty {
			sh.repairPushes.Add(1)
		}
		err := sh.send(m, req)
		if errors.Is(err, sstar.ErrBadHandle) && s.FreeHandle(e.Handle) {
			// m refused because a client freed the handle there (a free
			// is final, see server.FreeHandle): the free wins over every
			// copy, this one first.
			sh.Freed(e.Handle, e.Key)
			return true
		}
		ok = ok && err == nil
	}
	return ok
}

// forward sends req to every replica position of key but this shard and
// reports whether all of them acknowledged.
func (sh *Shard) forward(key uint64, req *server.Request) bool {
	ok := true
	for _, m := range sh.ring.Replicas(key, sh.cfg.Replicas) {
		if m != sh.cfg.Self {
			ok = sh.send(m, req) == nil && ok
		}
	}
	return ok
}

// send makes one attempt to deliver a placement request to addr and counts
// the outcome. A free answered BadHandle or Evicted reached its goal (the
// peer never installed the copy, or already dropped it). A factor push
// answered BadHandle is no failure either: a client freed the handle on the
// peer, and the caller lets that free win.
func (sh *Shard) send(addr string, req *server.Request) error {
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	resp, _, err := sh.pool.Call(ctx, addr, req)
	cancel()
	if err == nil && resp.Err != "" {
		switch {
		case req.Op == server.OpFree && (resp.Code == server.CodeBadHandle || resp.Code == server.CodeEvicted):
		case req.Op == server.OpReplicate && resp.Code == server.CodeBadHandle:
			return resp.Error()
		default:
			err = resp.Error()
		}
	}
	if err != nil {
		sh.replErrors.Add(1)
		sh.logf("cluster: %s: %s to %s failed, stays dirty: %v", sh.cfg.Self, req.Op, addr, err)
		return err
	}
	sh.replications.Add(1)
	return nil
}

// PlacementViolations diffs a fleet's manifests against the ring placement
// of the first shard and returns one human-readable line per violation: a
// key with the wrong copy count, a copy on a shard outside its replica set,
// an owner position marked replica, or a copy older than the newest values-
// epoch. Empty means converged: every key has exactly min(R, fleet) copies,
// each on its responsible shard, owner marked owned. Exported for the churn
// property test, the chaos e2e, and sstar-load's availability bench — the
// "is the cluster healed" predicate they all share.
func PlacementViolations(shards []*Shard) []string {
	if len(shards) == 0 {
		return nil
	}
	ring := shards[0].ring
	replicas := shards[0].cfg.Replicas
	type copyAt struct {
		addr string
		e    server.ManifestEntry
	}
	byKey := make(map[uint64][]copyAt)
	for _, sh := range shards {
		s := sh.srv.Load()
		if s == nil {
			continue
		}
		for _, e := range s.Manifest() {
			byKey[e.Key] = append(byKey[e.Key], copyAt{addr: sh.cfg.Self, e: e})
		}
	}
	var out []string
	for key, copies := range byKey {
		reps := ring.Replicas(key, replicas)
		want := make(map[string]int, len(reps)) // addr -> position
		for i, m := range reps {
			want[m] = i
		}
		var newest uint64
		for _, c := range copies {
			if c.e.ValEpoch > newest {
				newest = c.e.ValEpoch
			}
		}
		seen := make(map[string]bool, len(copies))
		for _, c := range copies {
			pos, ok := want[c.addr]
			switch {
			case !ok:
				out = append(out, fmt.Sprintf("key %#x: stray copy on %s", key, c.addr))
				continue
			case pos == 0 && c.e.Replica:
				out = append(out, fmt.Sprintf("key %#x: owner position %s marked replica", key, c.addr))
			case pos > 0 && !c.e.Replica:
				out = append(out, fmt.Sprintf("key %#x: replica position %s marked owner", key, c.addr))
			}
			if c.e.ValEpoch < newest {
				out = append(out, fmt.Sprintf("key %#x: stale copy on %s (values-epoch %d < %d)", key, c.addr, c.e.ValEpoch, newest))
			}
			seen[c.addr] = true
		}
		for _, m := range reps {
			if !seen[m] {
				out = append(out, fmt.Sprintf("key %#x: missing copy on %s", key, m))
			}
		}
	}
	return out
}
