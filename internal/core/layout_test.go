package core_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sstar/internal/bench"
	"sstar/internal/core"
	"sstar/internal/machine"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
)

// referenceBlockMatrix is the per-entry block builder the factor layout
// replaced, kept as the reference the layout must reproduce: allocate every
// block on its own with copied index lists, then place each entry of the
// permuted matrix w by a block lookup and two binary searches.
func referenceBlockMatrix(p *supernode.Partition, w *sparse.CSR) *supernode.BlockMatrix {
	bm := &supernode.BlockMatrix{
		P:    p,
		Diag: make([]*supernode.Block, p.NB),
		LCol: make([][]*supernode.Block, p.NB),
		URow: make([][]*supernode.Block, p.NB),
	}
	span := func(lo, hi int) []int32 {
		out := make([]int32, hi-lo)
		for i := range out {
			out[i] = int32(lo + i)
		}
		return out
	}
	for b := 0; b < p.NB; b++ {
		s := p.Size(b)
		d := &supernode.Block{I: b, J: b, Rows: span(p.Start[b], p.Start[b+1]), Cols: span(p.Start[b], p.Start[b+1])}
		d.Data = make([]float64, s*s)
		bm.Diag[b] = d
		for lo := 0; lo < len(p.LRows[b]); {
			rb := p.BlockOf[p.LRows[b][lo]]
			hi := lo
			for hi < len(p.LRows[b]) && p.BlockOf[p.LRows[b][hi]] == rb {
				hi++
			}
			blk := &supernode.Block{I: rb, J: b, Rows: append([]int32(nil), p.LRows[b][lo:hi]...), Cols: d.Cols}
			blk.Data = make([]float64, len(blk.Rows)*s)
			bm.LCol[b] = append(bm.LCol[b], blk)
			lo = hi
		}
		for lo := 0; lo < len(p.UCols[b]); {
			cb := p.BlockOf[p.UCols[b][lo]]
			hi := lo
			for hi < len(p.UCols[b]) && p.BlockOf[p.UCols[b][hi]] == cb {
				hi++
			}
			blk := &supernode.Block{I: b, J: cb, Rows: d.Rows, Cols: append([]int32(nil), p.UCols[b][lo:hi]...)}
			blk.Data = make([]float64, s*len(blk.Cols))
			bm.URow[b] = append(bm.URow[b], blk)
			lo = hi
		}
	}
	for i := 0; i < w.N; i++ {
		cols, vals := w.Row(i)
		for k, j := range cols {
			blk := bm.BlockAt(p.BlockOf[i], p.BlockOf[j])
			if blk == nil {
				panic(fmt.Sprintf("entry (%d,%d) outside static block structure", i, j))
			}
			r, c := blk.RowPos(i), blk.ColPos(j)
			if r < 0 || c < 0 {
				panic(fmt.Sprintf("entry (%d,%d) outside block (%d,%d) packing", i, j, blk.I, blk.J))
			}
			blk.Data[r*len(blk.Cols)+c] = vals[k]
		}
	}
	return bm
}

// sameBlocks fails unless got has exactly want's blocks: block lists,
// coordinates, index lists, and value bits.
func sameBlocks(t *testing.T, label string, want, got *supernode.BlockMatrix) {
	t.Helper()
	same := func(kind string, b int, w, g *supernode.Block) {
		t.Helper()
		if w.I != g.I || w.J != g.J || !slices.Equal(w.Rows, g.Rows) || !slices.Equal(w.Cols, g.Cols) || len(w.Data) != len(g.Data) {
			t.Fatalf("%s: %s block %d at (%d,%d) has a different shape", label, kind, b, w.I, w.J)
		}
		for i := range w.Data {
			if math.Float64bits(w.Data[i]) != math.Float64bits(g.Data[i]) {
				t.Fatalf("%s: %s block (%d,%d) differs at %d: %x vs %x", label, kind, w.I, w.J, i,
					math.Float64bits(w.Data[i]), math.Float64bits(g.Data[i]))
			}
		}
	}
	if len(got.Diag) != len(want.Diag) || len(got.LCol) != len(want.LCol) || len(got.URow) != len(want.URow) {
		t.Fatalf("%s: block list lengths differ", label)
	}
	for b := range want.Diag {
		same("diag", b, want.Diag[b], got.Diag[b])
		if len(got.LCol[b]) != len(want.LCol[b]) || len(got.URow[b]) != len(want.URow[b]) {
			t.Fatalf("%s: block row/column %d holds a different number of blocks", label, b)
		}
		for i := range want.LCol[b] {
			same("L", b, want.LCol[b][i], got.LCol[b][i])
		}
		for i := range want.URow[b] {
			same("U", b, want.URow[b][i], got.URow[b][i])
		}
	}
}

// snapshot deep-copies index lists, to check later that nothing wrote
// through the blocks' aliases of them.
func snapshot(lists [][]int32) [][]int32 {
	out := make([][]int32, len(lists))
	for i, l := range lists {
		out[i] = append([]int32(nil), l...)
	}
	return out
}

func unchanged(t *testing.T, label string, before, after [][]int32) {
	t.Helper()
	for i := range before {
		if !slices.Equal(before[i], after[i]) {
			t.Fatalf("%s: index list %d changed", label, i)
		}
	}
}

// TestLayoutMatchesReferenceBuilder: assembling through the factor layout
// yields exactly the blocks the per-entry reference builder yields —
// coordinates, index lists, and value bits, explicit zeros, -0 and NaN
// included — on the generator families and suite matrices. The partition's
// LRows/UCols, which the blocks now alias, must survive factorize,
// refactorize and every solve kernel unchanged.
func TestLayoutMatchesReferenceBuilder(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"grid2d":  sparse.Grid2D(12, 11, false, sparse.GenOptions{Convection: 0.6, Seed: 91}),
		"grid2d9": sparse.Grid2D(9, 9, true, sparse.GenOptions{StructuralDrop: 0.2, Seed: 92}),
		"grid3d":  sparse.Grid3D(5, 5, 4, sparse.GenOptions{DOF: 2, Convection: 0.3, Seed: 93}),
		"circuit": sparse.Circuit(250, 4, sparse.GenOptions{Convection: 0.5, Seed: 94}),
		"dense":   sparse.Dense(40, 95),
		"random":  sparse.RandomSparse(120, 3, 96),
	}
	for _, name := range []string{"sherman5", "jpwh991", "orsreg1"} {
		mats[name] = bench.ByName(name).Gen(0.3)
	}
	for name, a := range mats {
		for _, so := range []supernode.Options{{MaxBlock: 6, Amalgamate: 3}, {}} {
			label := fmt.Sprintf("%s maxblock=%d", name, so.MaxBlock)
			sym := core.Analyze(a, core.AnalyzeOptions{Supernode: so})
			p := sym.Partition
			lrows, ucols := snapshot(p.LRows), snapshot(p.UCols)

			// Odd values: explicit zeros, -0 and NaN land in their slots
			// bit for bit.
			odd := a.Clone()
			for k := range odd.Val {
				switch k % 7 {
				case 1:
					odd.Val[k] = 0
				case 3:
					odd.Val[k] = math.Copysign(0, -1)
				case 5:
					odd.Val[k] = math.NaN()
				}
			}
			for _, m := range []*sparse.CSR{a, odd} {
				sameBlocks(t, label, referenceBlockMatrix(p, sym.PermutedMatrix(m)), sym.Assemble(m))
			}

			f, err := core.FactorizeSeq(a, sym)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			scaled := a.Clone()
			for k := range scaled.Val {
				scaled.Val[k] *= 1.5
			}
			if _, err := core.FactorizeHost(scaled, sym, 2); err != nil {
				t.Fatalf("%s refactorize: %v", label, err)
			}
			b := make([]float64, 3*a.N)
			for i := range b {
				b[i] = float64(i%11) - 5
			}
			x := f.Solve(b[:a.N])
			f.SolveTranspose(b[:a.N])
			if _, err := f.SolveMany(b, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := f.SolveManyExact(b, 3); err != nil {
				t.Fatal(err)
			}
			f.Refine(a, x, b[:a.N], 1e-14, 2)
			f.CondEst(a)
			owner := make([]int, p.NB)
			for k := range owner {
				owner[k] = k % 2
			}
			if _, err := core.SolvePar1D(f, owner, 2, machine.T3E(), b[:a.N]); err != nil {
				t.Fatal(err)
			}
			if _, err := core.SolvePar2D(f, 1, 2, machine.T3E(), b[:a.N]); err != nil {
				t.Fatal(err)
			}
			unchanged(t, label+" LRows", lrows, p.LRows)
			unchanged(t, label+" UCols", ucols, p.UCols)
			for k, d := range f.BM.Diag {
				for i, r := range d.Rows {
					if int(r) != p.Start[k]+i || d.Cols[i] != r {
						t.Fatalf("%s: diagonal block %d index list changed", label, k)
					}
				}
			}
		}
	}
}
