package core

import (
	"fmt"
	"testing"

	"sstar/internal/sparse"
	"sstar/internal/supernode"
)

// densePanel builds the leading s-wide panel of a dense 2s-order matrix: an
// s-by-s diagonal block with one s-by-s L block below — the supernode panel
// shape FactorPanel sees in the factorization proper.
func densePanel(s int) (*supernode.BlockMatrix, *Workspace, []int32, []float64, []float64) {
	a := sparse.Dense(2*s, int64(2000+s))
	sym := Analyze(a, AnalyzeOptions{
		SkipOrdering: true,
		Supernode:    supernode.Options{MaxBlock: s},
	})
	bm := sym.Assemble(a)
	ws := NewWorkspace(bm)
	piv := make([]int32, 2*s)
	diag0 := append([]float64(nil), bm.Diag[0].Data...)
	lcol0 := append([]float64(nil), bm.LCol[0][0].Data...)
	return bm, ws, piv, diag0, lcol0
}

func BenchmarkFactorPanel(b *testing.B) {
	for _, s := range []int{8, 16, 25, 32, 64, 128} {
		b.Run(fmt.Sprintf("%dx%d", 2*s, s), func(b *testing.B) {
			bm, ws, piv, diag0, lcol0 := densePanel(s)
			before := ws.Fl.Total()
			if err := FactorPanel(bm, 0, piv, 1, ws); err != nil {
				b.Fatal(err)
			}
			flops := ws.Fl.Total() - before
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(bm.Diag[0].Data, diag0)
				copy(bm.LCol[0][0].Data, lcol0)
				if err := FactorPanel(bm, 0, piv, 1, ws); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(flops)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
	}
}

// BenchmarkUpdateBlockAligned measures the trailing update when the L/U
// packings match the target exactly (the direct Gemm path; dense matrices
// always align).
func BenchmarkUpdateBlockAligned(b *testing.B) {
	for _, s := range []int{8, 16, 25, 32, 64, 128} {
		b.Run(fmt.Sprintf("%dx%dx%d", s, s, s), func(b *testing.B) {
			// Dense 3s-order matrix with s-wide panels: diagonal block 2
			// receives the update L(2,0) * U(0,2).
			a := sparse.Dense(3*s, int64(3000+s))
			sym := Analyze(a, AnalyzeOptions{
				SkipOrdering: true,
				Supernode:    supernode.Options{MaxBlock: s},
			})
			bm := sym.Assemble(a)
			ws := NewWorkspace(bm)
			lb := bm.BlockAt(2, 0)
			ub := bm.BlockAt(0, 2)
			if lb == nil || ub == nil {
				b.Fatal("dense partition did not produce the expected blocks")
			}
			flops := int64(2) * int64(len(lb.Rows)) * int64(len(ub.Cols)) * int64(len(lb.Cols))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				UpdateBlock(bm, lb, ub, ws)
			}
			b.ReportMetric(float64(flops)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
	}
}

// BenchmarkUpdateBlockScatter measures the fused gather/scatter path on the
// largest misaligned block update a real sparse partition produces.
func BenchmarkUpdateBlockScatter(b *testing.B) {
	a := sparse.Grid3D(12, 12, 12, sparse.GenOptions{Convection: 0.3, Seed: 9})
	sym := Analyze(a, AnalyzeOptions{
		Supernode: supernode.Options{MaxBlock: 25, Amalgamate: 4},
	})
	bm := sym.Assemble(a)
	ws := NewWorkspace(bm)
	var lb, ub *supernode.Block
	best := int64(0)
	for k := 0; k < sym.Partition.NB; k++ {
		for _, ubc := range bm.URow[k] {
			for _, lbc := range bm.LCol[k] {
				t := bm.BlockAt(lbc.I, ubc.J)
				if t == nil || equalCols(lbc.Rows, t.Rows) && equalCols(ubc.Cols, t.Cols) {
					continue
				}
				vol := int64(len(lbc.Rows)) * int64(len(ubc.Cols)) * int64(len(lbc.Cols))
				if vol > best {
					best, lb, ub = vol, lbc, ubc
				}
			}
		}
	}
	if lb == nil {
		b.Skip("partition produced no misaligned update")
	}
	flops := 2 * best
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UpdateBlock(bm, lb, ub, ws)
	}
	b.ReportMetric(float64(flops)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
}
