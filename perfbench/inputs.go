package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"sstar"
)

// Every input comes from the --seed argument through subSeed, so one seed
// always yields the same matrices, right-hand sides and operation sequences,
// and the program under test sees only the generated data.

// subSeed derives an independent stream for one labelled input.
func subSeed(seed int64, label string, i int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(label))
	binary.LittleEndian.PutUint64(buf[:], uint64(i))
	h.Write(buf[:])
	return int64(h.Sum64() >> 1)
}

func rng(seed int64, label string, i int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, label, i)))
}

func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

// perturbed returns a copy of val with every entry scaled by 1±5%, the
// change one Newton or time step makes to a Jacobian.
func perturbed(r *rand.Rand, val []float64) []float64 {
	v := make([]float64, len(val))
	for i, x := range val {
		v[i] = x * (1 + 0.05*(2*r.Float64()-1))
	}
	return v
}

func withValues(a *sstar.Matrix, val []float64) *sstar.Matrix {
	b := *a
	b.Val = val
	return &b
}

const panelWidth = 32

// loopInputs drive refactor-loop: goodwin at suite scale 1.0 (n=7396) with
// seeded values, and pools the steps cycle through.
type loopInputs struct {
	a      *sstar.Matrix
	vals   [][]float64
	rhs    [][]float64
	panels [][]float64
}

func genLoop(seed int64) *loopInputs {
	a := sstar.GenGrid2D(43, 43, true, sstar.GenOptions{DOF: 4, Convection: 0.6, Seed: subSeed(seed, "goodwin", 0)})
	in := &loopInputs{a: a}
	r := rng(seed, "loop", 0)
	for i := 0; i < 8; i++ {
		in.vals = append(in.vals, perturbed(r, a.Val))
		in.rhs = append(in.rhs, randVec(r, a.N))
	}
	for i := 0; i < 2; i++ {
		in.panels = append(in.panels, randVec(r, a.N*panelWidth))
	}
	return in
}

// coldInput is one never-seen structure of cold-structures: a degree-3
// circuit of order 8000..12000, the values of its one refactor step and its
// right-hand sides.
type coldInput struct {
	a     *sstar.Matrix
	vals  []float64
	b     []float64
	panel []float64
}

func genCold(seed int64, i int) *coldInput {
	r := rng(seed, "cold", i)
	n := 8000 + r.Intn(4001)
	a := sstar.GenCircuit(n, 3, sstar.GenOptions{Convection: 0.5, StructuralDrop: 0.05, Seed: r.Int63()})
	return &coldInput{a: a, vals: perturbed(r, a.Val), b: randVec(r, n), panel: randVec(r, n*panelWidth)}
}

// serveInputs drive serve-mixed and cluster-mixed: one 20x20 grid pattern
// (n=400), so every factorize after the first hits the analysis cache.
type serveInputs struct {
	shared  *sstar.Matrix   // behind the handle both clients read
	private []*sstar.Matrix // one per client, refactorized in place
	vals    [][]float64     // refactor values on the common pattern
	fresh   []*sstar.Matrix // factorize-then-free matrices
	rhs     [][]float64
	panels  [][]float64
	checkB  []float64 // right-hand side of the untimed solve checking a write
	ops     [][]op    // per-client operation sequence, cycled
}

// The operation mix of the service workloads, in percent.
const (
	mixSolve    = 80
	mixSolve32  = 5
	mixRefactor = 10
)

func genServe(seed int64, clients int) *serveInputs {
	a := sstar.GenGrid2D(20, 20, false, sstar.GenOptions{Convection: 0.3, Seed: subSeed(seed, "grid", 0)})
	in := &serveInputs{shared: a}
	r := rng(seed, "serve", 0)
	for c := 0; c < clients; c++ {
		in.private = append(in.private, withValues(a, perturbed(r, a.Val)))
	}
	for i := 0; i < 8; i++ {
		in.vals = append(in.vals, perturbed(r, a.Val))
	}
	for i := 0; i < 4; i++ {
		in.fresh = append(in.fresh, withValues(a, perturbed(r, a.Val)))
	}
	for i := 0; i < 64; i++ {
		in.rhs = append(in.rhs, randVec(r, a.N))
	}
	for i := 0; i < 4; i++ {
		in.panels = append(in.panels, randVec(r, a.N*panelWidth))
	}
	in.checkB = randVec(r, a.N)
	for c := 0; c < clients; c++ {
		cr := rng(seed, "ops", c)
		seq := make([]op, 1<<15)
		for i := range seq {
			switch u := cr.Intn(100); {
			case u < mixSolve:
				seq[i] = opSolve
			case u < mixSolve+mixSolve32:
				seq[i] = opSolve32
			case u < mixSolve+mixSolve32+mixRefactor:
				seq[i] = opRefactor
			default:
				seq[i] = opFactor
			}
		}
		in.ops = append(in.ops, seq)
	}
	return in
}
