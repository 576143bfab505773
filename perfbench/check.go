package main

import (
	"math"

	"sstar"
)

// backwardTol bounds the normwise backward error
// ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞) of every answer the library workloads
// check. Partial pivoting on these matrices lands near 1e-16; an answer
// above 1e-10 is wrong, not merely inaccurate.
const backwardTol = 1e-10

// checker verifies answers outside the timed intervals. tamper, set only by
// the benchmark's own tests, corrupts an answer before it is checked so the
// tests can see a wrong answer counted as failed.
type checker struct {
	tamper func(o op, x []float64)
}

func (c *checker) seen(o op, x []float64) []float64 {
	if c.tamper != nil && x != nil {
		c.tamper(o, x)
	}
	return x
}

func backwardError(a *sstar.Matrix, x, b []float64) float64 {
	var rmax, xmax, bmax float64
	for i := 0; i < a.N; i++ {
		r := b[i]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			r -= a.Val[p] * x[a.ColInd[p]]
		}
		rmax = math.Max(rmax, math.Abs(r))
		xmax = math.Max(xmax, math.Abs(x[i]))
		bmax = math.Max(bmax, math.Abs(b[i]))
	}
	return rmax / (a.NormInf()*xmax + bmax)
}

// solves reports whether x (nrhs column-major columns) solves A·x = b to
// backwardTol in every column. NaNs fail.
func solves(a *sstar.Matrix, x, b []float64, nrhs int) bool {
	n := a.N
	if len(x) != n*nrhs || len(b) != n*nrhs {
		return false
	}
	for c := 0; c < nrhs; c++ {
		if !(backwardError(a, x[c*n:(c+1)*n], b[c*n:(c+1)*n]) < backwardTol) {
			return false
		}
	}
	return true
}

// bitwiseEqual is the service contract: an answer served over the wire,
// coalesced or not, equals the in-process answer bit for bit.
func bitwiseEqual(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
