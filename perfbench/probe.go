package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"sstar"
	"sstar/internal/server"
	"sstar/internal/wire"
	"sstar/internal/xblas"
)

// probeTarget is the matrix a traced run times the library layers on, in
// process: the workload's own refactorized matrix and its next values.
type probeTarget struct {
	a    *sstar.Matrix
	vals []float64
}

func medianOf(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func timeIt(reps int, f func() error) ([]time.Duration, error) {
	out := make([]time.Duration, reps)
	for i := range out {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out[i] = time.Since(t0)
	}
	return out, nil
}

// probeLibrary fills the xblas, core, ordering, symbolic and supernode
// metrics by calling the library's public functions on pt.
func (e *env) probeLibrary(pt probeTarget, m map[string]float64) error {
	const reps = 3
	// Analyze with one worker and with nproc, interleaved.
	var sym1, symP []time.Duration
	var an *sstar.Analysis
	var f *sstar.Factorization
	for r := 0; r < reps; r++ {
		an1, err := sstar.Analyze(pt.a, sstar.Options{HostWorkers: 1})
		if err != nil {
			return err
		}
		sym1 = append(sym1, an1.Phases().Symbolic)
		if an, f, err = e.analyze(pt.a, e.nproc); err != nil {
			return err
		}
		symP = append(symP, e.analyses[len(e.analyses)-1].ph.Symbolic)
	}
	m["symbolic.parallel_speedup"] = ratio(float64(medianOf(sym1)), float64(medianOf(symP)))
	m["symbolic.static_fill"] = float64(an.StaticFill())
	m["supernode.blocks"] = float64(an.Blocks())
	m["core.fill"] = float64(f.FillIn())

	var ph [5][]float64
	var share []float64
	for _, s := range e.analyses {
		for i, d := range []time.Duration{s.ph.Ordering, s.ph.Symbolic, s.ph.Detect, s.ph.Choose, s.ph.Build} {
			ph[i] = append(ph[i], ms(d))
		}
		share = append(share, ratio(float64(s.analyze), float64(s.analyze+s.factor)))
	}
	for i, name := range []string{"ordering.ms", "symbolic.ms", "supernode.detect_ms", "supernode.choose_ms", "supernode.build_ms"} {
		m[name] = median(ph[i])
	}
	m["analysis.share_of_factor"] = median(share)

	// Refactorize one worker against nproc; the nproc calls are traced so
	// the Observer splits them into tasks.
	a := withValues(pt.a, pt.vals)
	an1, err := sstar.Analyze(pt.a, sstar.Options{HostWorkers: 1})
	if err != nil {
		return err
	}
	f1, err := an1.FactorizeWith(pt.a)
	if err != nil {
		return err
	}
	t1, err := timeIt(reps, func() error { return f1.Refactorize(a) })
	if err != nil {
		return err
	}
	var tP []time.Duration
	for r := 0; r < reps; r++ {
		d, err := e.timed("probe.Refactorize", 0, e.tr.request(), true, func() error { return f.Refactorize(a) })
		if err != nil {
			return err
		}
		tP = append(tP, d)
	}
	m["core.parhost_speedup"] = ratio(float64(medianOf(t1)), float64(medianOf(tP)))

	var upd, pan, tasks, dark []float64
	for _, s := range e.obs.done {
		upd = append(upd, ms(s.update))
		pan = append(pan, ms(s.panel))
		tasks = append(tasks, float64(s.tasks))
		dark = append(dark, ms(s.elapsed-s.covered))
	}
	m["core.update_ms"], m["core.panel_ms"] = median(upd), median(pan)
	m["core.tasks"], m["core.untasked_ms"] = median(tasks), median(dark)

	// Counted work of one refactorization, against GEMM's own rate.
	xblas.EnableStats()
	err = f.Refactorize(a)
	st, _ := xblas.ReadStats()
	xblas.DisableStats()
	if err != nil {
		return err
	}
	peak := gemmPeak()
	m["xblas.flops_per_refactor"] = float64(st.Flops())
	m["xblas.flops_per_byte"] = ratio(float64(st.Flops()), float64(st.GemmBytes+st.ScatterBytes))
	m["xblas.gemm_peak_gflops"] = peak
	m["xblas.refactor_gflops"] = float64(st.Flops()) / float64(medianOf(tP).Nanoseconds())
	m["xblas.peak_fraction"] = ratio(m["xblas.refactor_gflops"], peak)

	r := rand.New(rand.NewSource(e.seed))
	b, panel := randVec(r, a.N), randVec(r, a.N*panelWidth)
	ts, err := timeIt(20, func() error { _, err := f.Solve(b); return err })
	if err != nil {
		return err
	}
	tm, err := timeIt(10, func() error { _, err := f.SolveMany(panel, panelWidth); return err })
	if err != nil {
		return err
	}
	m["core.solve_ms"], m["core.solve32_ms"] = ms(medianOf(ts)), ms(medianOf(tm))
	m["core.solve32_per_col_ratio"] = ratio(m["core.solve32_ms"]/panelWidth, m["core.solve_ms"])
	return nil
}

// gemmPeak times xblas.Gemm at 128³ and returns the median GFLOP/s of five
// batches.
func gemmPeak() float64 {
	const n, calls = 128, 20
	r := rand.New(rand.NewSource(1))
	a, b, c := randVec(r, n*n), randVec(r, n*n), make([]float64, n*n)
	xblas.Gemm(n, n, n, a, n, b, n, c, n)
	ts, _ := timeIt(5, func() error {
		for i := 0; i < calls; i++ {
			xblas.Gemm(n, n, n, a, n, b, n, c, n)
		}
		return nil
	})
	return 2 * n * n * n * calls / float64(medianOf(ts).Nanoseconds())
}

// probeWire times WriteGob/ReadGob on the service workloads' real request
// and response shapes.
func (w *serviceWorkload) probeWire(m map[string]float64) error {
	in := w.in
	st := server.RequestStats{QueueNs: 1, SolveNs: 1, Workers: w.nproc, FactorWorkers: 1, BatchWidth: 1}
	key, h := w.sh.Key(), w.sh.ID()
	msgs := [numOps][2]any{
		opSolve:    {&server.Request{Op: server.OpSolve, Handle: h, Key: key, B: in.rhs[0]}, &server.Response{X: w.sharedX[0], Stats: st}},
		opSolve32:  {&server.Request{Op: server.OpSolveMany, Handle: h, Key: key, B: in.panels[0], NRHS: panelWidth}, &server.Response{X: w.panelX[0], Stats: st}},
		opRefactor: {&server.Request{Op: server.OpRefactorize, Handle: h, Key: key, Values: in.vals[0]}, &server.Response{Stats: st}},
		opFactor:   {&server.Request{Op: server.OpFactorize, Matrix: in.fresh[0], Opts: sstar.DefaultOptions()}, &server.Response{Handle: h, N: in.shared.N, Nnz: in.shared.Nnz(), Key: key, Stats: st}},
	}
	const reps = 200
	for o, pair := range msgs {
		for i, msg := range pair {
			dir := [2]string{".req", ".resp"}[i]
			typ := [2]byte{server.FrameRequest, server.FrameResponse}[i]
			var buf bytes.Buffer
			enc, err := timeIt(reps, func() error { buf.Reset(); return wire.WriteGob(&buf, typ, msg) })
			if err != nil {
				return err
			}
			frame := append([]byte(nil), buf.Bytes()...)
			dec, err := timeIt(reps, func() error {
				var v any = &server.Request{}
				if i == 1 {
					v = &server.Response{}
				}
				return wire.ReadGob(bytes.NewReader(frame), typ, len(frame), v)
			})
			if err != nil {
				return fmt.Errorf("wire %s%s: %w", op(o), dir, err)
			}
			m["wire.bytes."+op(o).String()+dir] = float64(len(frame))
			m["wire.encode_us."+op(o).String()+dir] = float64(medianOf(enc).Nanoseconds()) / 1e3
			m["wire.decode_us."+op(o).String()+dir] = float64(medianOf(dec).Nanoseconds()) / 1e3
		}
	}
	return nil
}

// serviceLayers fills the client, server and cluster metrics from the traced
// phases' tally.
func serviceLayers(t *tally, m map[string]float64) {
	for o := op(0); o < numOps; o++ {
		n := float64(len(t.lat[o]))
		m["client.rtt_ms."+o.String()] = median(t.lat[o])
		m["client.unaccounted_share."+o.String()] = ratio(float64(t.rttNs[o]-t.queueNs[o]-t.computeNs[o]), float64(t.rttNs[o]))
		m["server.queue_ms."+o.String()] = ratio(float64(t.queueNs[o])/1e6, n)
		m["server.compute_ms."+o.String()] = ratio(float64(t.computeNs[o])/1e6, n)
	}
	c := t.counters
	m["client.dials"] = float64(t.client.Dials)
	m["client.reused"] = float64(t.client.Reused)
	m["client.retries"] = float64(t.client.Retries)
	m["client.redirects"] = float64(t.client.Redirects)
	m["server.batch_width"] = ratio(float64(t.batchWidth), float64(t.batches))
	m["server.cache_hit_ratio"] = ratio(c["hits"], c["hits"]+c["misses"])
	m["server.sheds"] = c["sheds"]
	m["server.handle_bytes"] = c["handle_bytes"]
	m["cluster.router_requests"] = c["router_requests"]
	m["cluster.scatters"] = c["scatters"]
	m["cluster.redirects"] = c["router_redirects"] + c["shard_redirects"]
	m["cluster.failovers"] = c["failovers"]
	writes := float64(len(t.lat[opRefactor]) + len(t.lat[opFactor]))
	m["cluster.replications_per_write"] = ratio(c["replications"], writes)
	m["cluster.repair_pushes"] = c["repair_pushes"]
}
