package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sstar"
	"sstar/client"
	"sstar/internal/cluster"
	"sstar/internal/server"
)

// serviceClients is 1: with two clients the service, its clients and (in
// the cluster) the router and replication oversubscribe a 2-vCPU machine,
// and the write tails and throughput of runs of one build spread up to
// 0.44 (interquartile range over median), wider than any usable bound.
const serviceClients = 1

// serviceWorkload is serve-mixed (one in-process server) and cluster-mixed
// (an in-process router in front of two shards, two copies of every
// structure). Closed-loop clients share one connection pool holding one
// connection each, read one shared handle, and write a private handle each.
type serviceWorkload struct {
	*env
	in      *serveInputs
	cluster bool

	// Answers computed in-process before timing: every answer the service
	// returns must equal one of these bit for bit.
	sharedX [][]float64 // shared matrix, per rhs
	panelX  [][]float64 // shared matrix, per panel
	valsX   [][]float64 // private handle after refactor with vals[k], on checkB
	freshX  [][]float64 // fresh[k], on checkB

	f    *fleet
	c    *client.Client
	sh   *client.Handle
	priv []*client.Handle
	pos  []int // next index into each client's operation sequence
}

func newServiceWorkload(e *env, clusterMode bool) (*serviceWorkload, error) {
	in := genServe(e.seed, serviceClients)
	w := &serviceWorkload{env: e, in: in, cluster: clusterMode, pos: make([]int, serviceClients)}
	f, err := sstar.Factorize(in.shared, sstar.DefaultOptions())
	if err != nil {
		return nil, err
	}
	for _, b := range in.rhs {
		x, err := f.Solve(b)
		if err != nil || !solves(in.shared, x, b, 1) {
			return nil, fmt.Errorf("in-process reference solve failed (%v)", err)
		}
		w.sharedX = append(w.sharedX, x)
	}
	for _, p := range in.panels {
		x, err := f.SolveMany(p, panelWidth)
		if err != nil || !solves(in.shared, x, p, panelWidth) {
			return nil, fmt.Errorf("in-process reference panel solve failed (%v)", err)
		}
		w.panelX = append(w.panelX, x)
	}
	ref := func(a *sstar.Matrix) ([]float64, error) {
		g, err := sstar.Factorize(a, sstar.DefaultOptions())
		if err != nil {
			return nil, err
		}
		x, err := g.Solve(in.checkB)
		if err == nil && !solves(a, x, in.checkB, 1) {
			err = errors.New("in-process reference does not solve")
		}
		return x, err
	}
	for _, v := range in.vals {
		x, err := ref(withValues(in.shared, v))
		if err != nil {
			return nil, err
		}
		w.valsX = append(w.valsX, x)
	}
	for _, a := range in.fresh {
		x, err := ref(a)
		if err != nil {
			return nil, err
		}
		w.freshX = append(w.freshX, x)
	}
	return w, nil
}

// fleet is one booted service: a server, or shards behind a router.
type fleet struct {
	servers []*server.Server
	shards  []*cluster.Shard
	router  *cluster.Router
	addr    string
	serving sync.WaitGroup
}

func (fl *fleet) serve(l net.Listener, serve func(net.Listener) error) {
	fl.serving.Add(1)
	go func() {
		defer fl.serving.Done()
		_ = serve(l) // returns when Close stops the listener
	}()
}

// bootFleet starts the service on loopback TCP with nproc workers in
// total: all on the one server, or split evenly across two shards.
func bootFleet(clusterMode bool, nproc int) (*fleet, error) {
	fl := &fleet{}
	if !clusterMode {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s := server.New(server.Config{Workers: nproc})
		fl.servers = []*server.Server{s}
		fl.addr = l.Addr().String()
		fl.serve(l, s.Serve)
		return fl, nil
	}
	const shards = 2
	ls := make([]net.Listener, shards)
	peers := make([]string, shards)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range ls[:i] {
				l.Close()
			}
			return nil, err
		}
		ls[i], peers[i] = l, l.Addr().String()
	}
	for i, l := range ls {
		sh, err := cluster.NewShard(cluster.ShardConfig{Self: peers[i], Peers: peers, Replicas: 2})
		if err != nil {
			for _, l := range ls[i:] {
				l.Close()
			}
			fl.close()
			return nil, err
		}
		// One factor goroutine per request, as server.Config advises for
		// many small systems: the shards' request workers already use
		// every core.
		s := server.New(server.Config{Workers: max(1, nproc/shards), FactorWorkers: 1, Cluster: sh})
		sh.Bind(s)
		fl.shards = append(fl.shards, sh)
		fl.servers = append(fl.servers, s)
		fl.serve(l, s.Serve)
	}
	r, err := cluster.NewRouter(cluster.RouterConfig{Shards: peers, Replicas: 2})
	if err != nil {
		fl.close()
		return nil, err
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fl.close()
		return nil, err
	}
	fl.router = r
	fl.addr = rl.Addr().String()
	fl.serve(rl, r.Serve)
	return fl, nil
}

// converged reports whether every write has reached its replica and every
// structure sits where the ring places it.
func (fl *fleet) converged() bool {
	for _, s := range fl.servers {
		if s.Stats().ReplicationPending != 0 {
			return false
		}
	}
	return len(fl.shards) == 0 || len(cluster.PlacementViolations(fl.shards)) == 0
}

func (fl *fleet) close() {
	if fl.router != nil {
		fl.router.Close()
	}
	for _, s := range fl.servers {
		s.Close()
	}
	for _, sh := range fl.shards {
		sh.Close()
	}
	fl.serving.Wait()
}

// counters sums the service's own counters: the fleet's ServerStats and,
// in front of a cluster, the router's.
func (fl *fleet) counters() map[string]float64 {
	m := map[string]float64{}
	for _, s := range fl.servers {
		st := s.Stats()
		m["hits"] += float64(st.CacheHits)
		m["misses"] += float64(st.CacheMisses)
		m["sheds"] += float64(st.Sheds)
		m["handle_bytes"] += float64(st.HandleBytes)
		m["replications"] += float64(st.Replications)
		m["repair_pushes"] += float64(st.RepairPushes)
		m["shard_redirects"] += float64(st.Redirects)
	}
	if fl.router != nil {
		rs := fl.router.Stats()
		m["router_requests"] = float64(rs.Requests)
		m["scatters"] = float64(rs.Scatters)
		m["router_redirects"] = float64(rs.Redirects)
		m["failovers"] = float64(rs.Failovers)
	}
	return m
}

// setup boots the service, connects the clients and creates the shared and
// private handles, then waits for replicas to converge.
func (w *serviceWorkload) setup() error {
	ctx := context.Background()
	fl, err := bootFleet(w.cluster, w.nproc)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		if w.c != nil {
			w.c.Close()
			w.c = nil
		}
		fl.close()
		return fmt.Errorf("service setup: %w", err)
	}
	w.f = fl
	c, err := client.Dial("tcp", fl.addr, client.WithMaxIdle(serviceClients))
	if err != nil {
		return fail(err)
	}
	w.c = c
	if w.sh, _, err = c.Factorize(ctx, w.in.shared, sstar.DefaultOptions()); err != nil {
		return fail(err)
	}
	w.priv = w.priv[:0]
	for _, a := range w.in.private {
		h, _, err := c.Factorize(ctx, a, sstar.DefaultOptions())
		if err != nil {
			return fail(err)
		}
		w.priv = append(w.priv, h)
	}
	x, _, err := w.sh.Solve(ctx, w.in.rhs[0])
	if err != nil || !bitwiseEqual(x, w.sharedX[0]) {
		return fail(fmt.Errorf("shared handle does not solve (%v)", err))
	}
	if err := fl.settle(); err != nil {
		return fail(err)
	}
	return nil
}

// settle waits until every write has reached its replica and every
// structure sits where the ring places it.
func (fl *fleet) settle() error {
	for deadline := time.Now().Add(10 * time.Second); !fl.converged(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return errors.New("replicas did not converge within 10s")
		}
	}
	return nil
}

func (w *serviceWorkload) teardown() {
	w.c.Close()
	w.c = nil
	w.f.close()
}

func (w *serviceWorkload) target() probeTarget {
	return probeTarget{a: w.in.shared, vals: w.in.vals[0]}
}

func (w *serviceWorkload) phase(d time.Duration) *tally {
	before, cm := w.f.counters(), w.c.Metrics()
	tallies := make([]*tally, len(w.pos))
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for g := range tallies {
		tallies[g] = &tally{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w.loop(g, end, tallies[g])
		}(g)
	}
	wg.Wait()
	t := &tally{}
	for _, u := range tallies {
		t.merge(u)
	}
	t.clients = len(tallies)
	after, ca := w.f.counters(), w.c.Metrics()
	t.counters = map[string]float64{}
	for k, v := range after {
		t.counters[k] = v - before[k]
	}
	t.counters["handle_bytes"] = after["handle_bytes"]
	t.client = client.Metrics{
		Dials: ca.Dials - cm.Dials, Reused: ca.Reused - cm.Reused,
		Retries: ca.Retries - cm.Retries, Redirects: ca.Redirects - cm.Redirects,
	}
	return t
}

// loop is one closed-loop client: it sends its next request only after the
// previous answer arrived and was checked.
func (w *serviceWorkload) loop(g int, end time.Time, t *tally) {
	ctx := context.Background()
	in := w.in
	seq := in.ops[g]
	for time.Now().Before(end) {
		i := w.pos[g]
		w.pos[g]++
		o := seq[i%len(seq)]
		req := w.tr.request()
		root := w.tr.open("bench.request", 0, req)
		id := w.tr.open("client."+o.String(), root, req)
		var st client.RequestStats
		var err error
		var ok func() bool
		t0 := time.Now()
		switch o {
		case opSolve:
			j := i % len(in.rhs)
			var x []float64
			x, st, err = w.sh.Solve(ctx, in.rhs[j])
			ok = func() bool { return bitwiseEqual(w.seen(o, x), w.sharedX[j]) }
		case opSolve32:
			j := i % len(in.panels)
			var x []float64
			x, st, err = w.sh.SolveMany(ctx, in.panels[j], panelWidth)
			ok = func() bool { return bitwiseEqual(w.seen(o, x), w.panelX[j]) }
		case opRefactor:
			k := i % len(in.vals)
			h := w.priv[g]
			st, err = h.Refactorize(ctx, in.vals[k])
			ok = func() bool {
				x, _, err := h.Solve(ctx, in.checkB)
				return err == nil && bitwiseEqual(w.seen(o, x), w.valsX[k])
			}
		case opFactor:
			k := i % len(in.fresh)
			var h *client.Handle
			h, st, err = w.c.Factorize(ctx, in.fresh[k], sstar.DefaultOptions())
			ok = func() bool {
				x, _, err := h.Solve(ctx, in.checkB)
				good := err == nil && bitwiseEqual(w.seen(o, x), w.freshX[k])
				return h.Free(ctx) == nil && good
			}
		}
		dur := time.Since(t0)
		w.tr.close(id)
		if err == nil {
			// The server's own split of the round trip, as reported.
			q := time.Duration(st.QueueNs)
			c := time.Duration(st.AnalyzeNs + st.FactorNs + st.SolveNs)
			w.tr.add("server.queue", id, req, t0, q)
			w.tr.add("server.compute", id, req, t0.Add(q), c)
		}
		good := err == nil && w.check(root, req, ok)
		w.tr.close(root)
		t.done(o, dur, good)
		if good {
			t.rttNs[o] += dur.Nanoseconds()
			t.queueNs[o] += st.QueueNs
			t.computeNs[o] += st.AnalyzeNs + st.FactorNs + st.SolveNs
			if o == opSolve {
				t.batchWidth += int64(st.BatchWidth)
				t.batches++
			}
		}
	}
}
