package sstar

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// factsBitIdentical compares two facade factorizations bit for bit: pivot
// sequence and every packed factor block.
func factsBitIdentical(t *testing.T, label string, a, b *Factorization) {
	t.Helper()
	for m := range a.fact.Piv {
		if a.fact.Piv[m] != b.fact.Piv[m] {
			t.Fatalf("%s: pivot %d differs", label, m)
		}
	}
	bm, bn := a.fact.BM, b.fact.BM
	for k := range bm.Diag {
		for i, v := range bm.Diag[k].Data {
			if bn.Diag[k].Data[i] != v {
				t.Fatalf("%s: diag block %d differs at %d", label, k, i)
			}
		}
		for j := range bm.LCol[k] {
			for i, v := range bm.LCol[k][j].Data {
				if bn.LCol[k][j].Data[i] != v {
					t.Fatalf("%s: L block (%d,%d) differs at %d", label, k, j, i)
				}
			}
		}
		for j := range bm.URow[k] {
			for i, v := range bm.URow[k][j].Data {
				if bn.URow[k][j].Data[i] != v {
					t.Fatalf("%s: U block (%d,%d) differs at %d", label, k, j, i)
				}
			}
		}
	}
}

func TestFactorizeHostParallelBitIdentical(t *testing.T) {
	a := GenGrid2D(13, 12, false, GenOptions{Seed: 81, Convection: 0.5})
	seq, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 1, 2, 4, 8} {
		o := DefaultOptions()
		o.HostWorkers = w
		par, err := Factorize(a, o)
		if err != nil {
			t.Fatalf("HostWorkers=%d: %v", w, err)
		}
		factsBitIdentical(t, "HostWorkers Factorize vs sequential", seq, par)
		b := rhs(a.N, int64(82+w))
		x, err := par.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := Residual(a, x, b); r > 1e-10 {
			t.Fatalf("HostWorkers=%d: residual %g", w, r)
		}
	}
}

// TestRefactorizeKeepsParallelPath: a handle built with HostWorkers > 1 must
// refactorize through the parallel driver and still produce factors
// bit-identical to a fresh sequential factorization of the new values.
func TestRefactorizeKeepsParallelPath(t *testing.T) {
	a := GenCircuit(200, 3, GenOptions{Seed: 83})
	o := DefaultOptions()
	o.HostWorkers = 4
	par, err := Factorize(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if par.hostWorkers != 4 {
		t.Fatalf("handle lost its worker count: %d", par.hostWorkers)
	}
	a2 := a.Clone()
	for i := range a2.Val {
		a2.Val[i] *= 0.7
	}
	if err := par.Refactorize(a2); err != nil {
		t.Fatal(err)
	}
	seq, err := Factorize(a2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	factsBitIdentical(t, "parallel refactorize vs fresh sequential", seq, par)
}

// TestStructureKeyIgnoresHostWorkers: the worker count never changes the
// analysis or the factors, so it must not fragment structure-keyed caches.
func TestStructureKeyIgnoresHostWorkers(t *testing.T) {
	a := GenGrid2D(9, 9, false, GenOptions{Seed: 84})
	base := DefaultOptions()
	k0 := StructureKey(a, base)
	for _, w := range []int{1, 2, 8, 64} {
		o := base
		o.HostWorkers = w
		if k := StructureKey(a, o); k != k0 {
			t.Fatalf("HostWorkers=%d changed the structure key: %x vs %x", w, k, k0)
		}
	}
	// The virtual-machine routing knobs are execution strategy, not
	// structure: they never change factors, so they must not fragment
	// structure-keyed caches either.
	vm := base
	vm.Procs, vm.Machine, vm.Mapping, vm.TraceParallel = 4, T3D, Map1DCA, true
	if k := StructureKey(a, vm); k != k0 {
		t.Fatalf("Procs/Machine/Mapping changed the structure key: %x vs %x", k, k0)
	}
	// Sanity: options that do change results still change the key.
	o := base
	o.BlockSize = base.BlockSize + 5
	if StructureKey(a, o) == k0 {
		t.Fatal("BlockSize change did not change the structure key")
	}
}

// TestFailedRefactorizeKeepsFactors: a Refactorize that fails on numerically
// singular values must leave the handle's previous factors in force — every
// numeric factorization assembles into a fresh slab, never into the live
// one — so the next Solve returns the pre-failure answer bit for bit.
func TestFailedRefactorizeKeepsFactors(t *testing.T) {
	a := GenCircuit(300, 4, GenOptions{Seed: 85, Convection: 0.4})
	b := rhs(a.N, 86)
	for _, w := range []int{1, 2} {
		o := DefaultOptions()
		o.HostWorkers = w
		f, err := Factorize(a, o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		// Same pattern, column 7 all zero: structurally fine, numerically
		// singular.
		bad := a.Clone()
		for i := 0; i < bad.N; i++ {
			cols, vals := bad.Row(i)
			for p, c := range cols {
				if c == 7 {
					vals[p] = 0
				}
			}
		}
		if err := f.Refactorize(bad); !errors.Is(err, ErrSingular) {
			t.Fatalf("HostWorkers=%d: Refactorize of singular values returned %v, want ErrSingular", w, err)
		}
		got, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("HostWorkers=%d: solve after failed Refactorize differs at %d: %v vs %v", w, i, got[i], want[i])
			}
		}
	}
}

// TestConcurrentFirstFactorizeWith: goroutines sharing one fresh Analysis
// race to its first numeric factorization, which builds the factor layout.
// Every result must be bit-identical to the sequential factorization.
func TestConcurrentFirstFactorizeWith(t *testing.T) {
	a := GenGrid2D(16, 15, false, GenOptions{Seed: 87, Convection: 0.5})
	seq, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		o := DefaultOptions()
		o.HostWorkers = w
		an, err := Analyze(a, o)
		if err != nil {
			t.Fatal(err)
		}
		facts := make([]*Factorization, 8)
		errs := make([]error, len(facts))
		var wg sync.WaitGroup
		for g := range facts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				facts[g], errs[g] = an.FactorizeWith(a)
			}()
		}
		wg.Wait()
		for g, f := range facts {
			if errs[g] != nil {
				t.Fatalf("HostWorkers=%d goroutine %d: %v", w, g, errs[g])
			}
			factsBitIdentical(t, "concurrent first FactorizeWith vs sequential", seq, f)
		}
	}
}
