package main

import (
	"fmt"
	"time"

	"sstar"
)

// env is the state every workload shares: the run's seed and core count,
// the answer checker, and, in a traced run, the tracer of the current phase
// (nil while a phase runs untraced) and the Observer attached to the library.
type env struct {
	checker
	seed  int64
	nproc int
	tr    *tracer
	obs   *taskObs

	// analyses are the Analyze+FactorizeWith pairs the benchmark ran and
	// timed in a traced run, for the ordering/symbolic/supernode metrics.
	analyses []analysisSample
}

type analysisSample struct {
	ph              sstar.AnalyzePhases
	analyze, factor time.Duration
}

// timed runs call as one operation span under parent. While a traced phase
// runs, the Observer charges the library's events to that span, and keep
// records the call as one refactorization's task split.
func (e *env) timed(name string, parent int, req int64, keep bool, call func() error) (time.Duration, error) {
	id := e.tr.open(name, parent, req)
	obs := e.obs
	if e.tr == nil {
		obs = nil
	}
	obs.attach(id, req)
	t0 := time.Now()
	err := call()
	d := time.Since(t0)
	obs.detach(keep && err == nil)
	e.tr.close(id)
	return d, err
}

// check runs an answer check as its own span, outside the timed interval.
func (e *env) check(parent int, req int64, ok func() bool) bool {
	id := e.tr.open("bench.check", parent, req)
	defer e.tr.close(id)
	return ok()
}

func (e *env) options(workers int) sstar.Options {
	return sstar.Options{HostWorkers: workers, Observer: e.obs.observer()}
}

// analyze runs Analyze+FactorizeWith as the factor operation does, and
// keeps the phase split when tracing.
func (e *env) analyze(a *sstar.Matrix, workers int) (*sstar.Analysis, *sstar.Factorization, error) {
	t0 := time.Now()
	an, err := sstar.Analyze(a, e.options(workers))
	if err != nil {
		return nil, nil, err
	}
	ta := time.Since(t0)
	f, err := an.FactorizeWith(a)
	if err != nil {
		return nil, nil, err
	}
	if e.obs != nil {
		e.analyses = append(e.analyses, analysisSample{an.Phases(), ta, time.Since(t0) - ta})
	}
	return an, f, nil
}

// loopWorkload is refactor-loop: a Newton/time-stepping loop on goodwin.
// Each step refactorizes perturbed values on the fixed pattern, then solves
// one right-hand side and a 32-column panel; every fourth step also builds
// a fresh factorization from the cached analysis.
type loopWorkload struct {
	*env
	in    *loopInputs
	an    *sstar.Analysis
	f     *sstar.Factorization
	fresh *sstar.Factorization
	step  int
}

func (w *loopWorkload) setup() error {
	an, f, err := w.analyze(w.in.a, w.nproc)
	if err != nil {
		return fmt.Errorf("refactor-loop setup: %w", err)
	}
	w.an, w.f, w.fresh = an, f, f
	x, err := f.Solve(w.in.rhs[0])
	if err != nil || !solves(w.in.a, x, w.in.rhs[0], 1) {
		return fmt.Errorf("refactor-loop setup: initial factorization does not solve (%v)", err)
	}
	return nil
}

func (w *loopWorkload) teardown() {}

func (w *loopWorkload) target() probeTarget {
	return probeTarget{a: w.in.a, vals: w.in.vals[0]}
}

func (w *loopWorkload) phase(d time.Duration) *tally {
	t := &tally{clients: 1}
	in := w.in
	for end := time.Now().Add(d); time.Now().Before(end); w.step++ {
		k := w.step
		m := withValues(in.a, in.vals[k%len(in.vals)])
		b := in.rhs[k%len(in.rhs)]
		panel := in.panels[k%len(in.panels)]
		req := w.tr.request()
		root := w.tr.open("bench.step", 0, req)

		// The refactorization is checked by the solves that follow it.
		dur, err := w.timed("sstar.Refactorize", root, req, true, func() error { return w.f.Refactorize(m) })
		t.done(opRefactor, dur, err == nil)

		var x []float64
		dur, err = w.timed("sstar.Solve", root, req, false, func() (err error) { x, err = w.f.Solve(b); return })
		t.done(opSolve, dur, err == nil && w.check(root, req, func() bool { return solves(m, w.seen(opSolve, x), b, 1) }))

		dur, err = w.timed("sstar.SolveMany", root, req, false, func() (err error) { x, err = w.f.SolveMany(panel, panelWidth); return })
		t.done(opSolve32, dur, err == nil && w.check(root, req, func() bool { return solves(m, w.seen(opSolve32, x), panel, panelWidth) }))

		if k%4 == 3 {
			var f *sstar.Factorization
			dur, err = w.timed("sstar.FactorizeWith", root, req, false, func() (err error) { f, err = w.an.FactorizeWith(m); return })
			t.done(opFactor, dur, err == nil && w.check(root, req, func() bool {
				x, err := f.Solve(b)
				return err == nil && solves(m, w.seen(opFactor, x), b, 1)
			}))
			if err == nil {
				w.fresh = f
			}
		}
		w.tr.close(root)
	}
	return t
}

// coldWorkload is cold-structures: a stream of never-seen circuit
// structures. Each one is analyzed and factorized, solved, then taken
// through one values-only refactorization and a 32-column solve. The last
// coldLive factorizations stay live, as a simulator holding its recent
// circuits would, so heap_mb reads a sum over many sizes, not the size of
// whichever structure came last.
type coldWorkload struct {
	*env
	warm *sstar.Matrix
	live [coldLive]*sstar.Factorization
	i    int
}

const coldLive = 16

func (w *coldWorkload) setup() error {
	if _, _, err := w.analyze(w.warm, w.nproc); err != nil {
		return fmt.Errorf("cold-structures setup: %w", err)
	}
	return nil
}

func (w *coldWorkload) teardown() {}

func (w *coldWorkload) target() probeTarget {
	in := genCold(w.seed, 0)
	return probeTarget{a: in.a, vals: in.vals}
}

func (w *coldWorkload) phase(d time.Duration) *tally {
	t := &tally{clients: 1}
	for end := time.Now().Add(d); time.Now().Before(end); w.i++ {
		in := genCold(w.seed, w.i)
		req := w.tr.request()
		root := w.tr.open("bench.structure", 0, req)

		var f *sstar.Factorization
		dur, err := w.timed("sstar.Analyze+FactorizeWith", root, req, false, func() (err error) {
			_, f, err = w.analyze(in.a, w.nproc)
			return
		})
		t.done(opFactor, dur, err == nil)
		if err != nil {
			w.tr.close(root)
			continue
		}
		w.live[w.i%coldLive] = f

		var x []float64
		dur, err = w.timed("sstar.Solve", root, req, false, func() (err error) { x, err = f.Solve(in.b); return })
		t.done(opSolve, dur, err == nil && w.check(root, req, func() bool { return solves(in.a, w.seen(opSolve, x), in.b, 1) }))

		m := withValues(in.a, in.vals)
		dur, err = w.timed("sstar.Refactorize", root, req, true, func() error { return f.Refactorize(m) })
		t.done(opRefactor, dur, err == nil)

		dur, err = w.timed("sstar.SolveMany", root, req, false, func() (err error) { x, err = f.SolveMany(in.panel, panelWidth); return })
		t.done(opSolve32, dur, err == nil && w.check(root, req, func() bool { return solves(m, w.seen(opSolve32, x), in.panel, panelWidth) }))
		w.tr.close(root)
	}
	return t
}
