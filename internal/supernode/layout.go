package supernode

import (
	"fmt"
	"slices"

	"sstar/internal/sparse"
)

// Layout is the storage plan of a partition's block matrix, fixed by the
// static structure alone: every block of block column b lives in one
// contiguous []float64 slab, in the order diagonal block, L blocks of column
// b, U blocks of row b, and block columns follow each other in order. A
// Layout built by NewMatrixLayout also maps every entry of the analyzed CSR
// matrix to its slab slot, row and column permutations included, so a
// numeric factorization assembles its working matrix with one slab
// allocation and one gather pass (Assemble) instead of permuting the matrix
// and searching the blocks per nonzero.
//
// A Layout is immutable after construction and safe for concurrent use.
type Layout struct {
	p *Partition
	// size is the slab length: the total storage entries of the factors.
	size int
	// lCut[b] splits LRows[b] into the row runs of the L blocks of column b:
	// L block t holds LRows[b][lCut[b][t]:lCut[b][t+1]]. uCut does the same
	// for UCols[b] and the U blocks of row b.
	lCut, uCut [][]int32
	nblocks    int
	// iota holds 0..N-1; every diagonal block's Rows and Cols are a slice
	// of it.
	iota []int32
	// scatter[k] is the slab offset of CSR entry k of the analyzed matrix
	// (nil for a Layout built by NewLayout).
	scatter []int
}

// NewLayout lays out the blocks of p. p must be well formed (Check).
func NewLayout(p *Partition) *Layout {
	l := &Layout{p: p, lCut: runCuts(p, p.LRows, p.LBlocks), uCut: runCuts(p, p.UCols, p.UBlocks), nblocks: p.NB}
	l.iota = make([]int32, p.N)
	for i := range l.iota {
		l.iota[i] = int32(i)
	}
	for b := 0; b < p.NB; b++ {
		s := p.Size(b)
		l.size += s * (s + len(p.LRows[b]) + len(p.UCols[b]))
		l.nblocks += len(l.lCut[b]) + len(l.uCut[b]) - 2
	}
	return l
}

// runCuts splits each idx[b] into its runs of equal block: run t of idx[b]
// is idx[b][out[b][t]:out[b][t+1]]. blocks[b], the block image of idx[b],
// sizes the one backing array all cut lists share.
func runCuts(p *Partition, idx, blocks [][]int32) [][]int32 {
	total := 0
	for _, bs := range blocks {
		total += len(bs) + 1
	}
	flat := make([]int32, 0, total)
	out := make([][]int32, len(idx))
	for b, xs := range idx {
		lo := len(flat)
		for i, x := range xs {
			if i == 0 || p.BlockOf[x] != p.BlockOf[xs[i-1]] {
				flat = append(flat, int32(i))
			}
		}
		flat = append(flat, int32(len(xs)))
		out[b] = flat[lo:len(flat):len(flat)]
	}
	return out
}

// NewMatrixLayout lays out the blocks of p and maps every entry of a — the
// matrix the partition was analyzed from, before the row permutation rowPerm
// and the column permutation colPerm — to its slab slot. Each entry is
// located once here: binary searches in the packed row (L) or column (U)
// lists. An entry outside the static structure panics, as it cannot exist
// when a produced the partition.
func NewMatrixLayout(p *Partition, a *sparse.CSR, rowPerm, colPerm []int) *Layout {
	if a.N != p.N || a.M != p.N {
		panic("supernode: matrix/partition size mismatch")
	}
	l := NewLayout(p)
	// base[b] is the slab offset of block column b's diagonal block; its L
	// region follows as one len(LRows[b]) x s row-major run, then its U
	// blocks.
	base := make([]int, p.NB)
	off := 0
	for b := 0; b < p.NB; b++ {
		base[b] = off
		s := p.Size(b)
		off += s * (s + len(p.LRows[b]) + len(p.UCols[b]))
	}
	l.scatter = make([]int, len(a.ColInd))
	for i := 0; i < a.N; i++ {
		r := rowPerm[i]
		bi := p.BlockOf[r]
		si := p.Size(bi)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := colPerm[a.ColInd[k]]
			bj := p.BlockOf[c]
			var slot int
			switch {
			case bi == bj:
				slot = base[bi] + (r-p.Start[bi])*si + c - p.Start[bi]
			case bi > bj:
				q := searchInt32(p.LRows[bj], int32(r))
				if q < 0 {
					panic(fmt.Sprintf("supernode: entry (%d,%d) outside static block structure", r, c))
				}
				sj := p.Size(bj)
				slot = base[bj] + sj*(sj+q) + c - p.Start[bj]
			default:
				q := searchInt32(p.UCols[bi], int32(c))
				if q < 0 {
					panic(fmt.Sprintf("supernode: entry (%d,%d) outside static block structure", r, c))
				}
				// U block t of row bi holds UCols[bi][cut[t]:cut[t+1]].
				cut := l.uCut[bi]
				t, found := slices.BinarySearch(cut, int32(q))
				if !found {
					t--
				}
				w := int(cut[t+1] - cut[t])
				slot = base[bi] + si*(si+len(p.LRows[bi])+int(cut[t])) + (r-p.Start[bi])*w + q - int(cut[t])
			}
			l.scatter[k] = slot
		}
	}
	return l
}

// Covers reports an error when an entry of a — the matrix before the row
// permutation rowPerm and the column permutation colPerm, both of order N —
// lies outside the static block structure of p. A partition analyzed from a
// covers it by construction; a decoded one is checked before a matrix is
// assembled by it (NewMatrixLayout panics on such an entry).
func (p *Partition) Covers(a *sparse.CSR, rowPerm, colPerm []int) error {
	for i := 0; i < a.N; i++ {
		r := rowPerm[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := colPerm[a.ColInd[k]]
			bi, bj := p.BlockOf[r], p.BlockOf[c]
			if bi > bj && searchInt32(p.LRows[bj], int32(r)) < 0 || bi < bj && searchInt32(p.UCols[bi], int32(c)) < 0 {
				return fmt.Errorf("supernode: entry (%d,%d) outside static block structure", r, c)
			}
		}
	}
	return nil
}

// Assemble returns a fresh block matrix holding the values of a, which must
// have the pattern the layout was built from (NewMatrixLayout): one zeroed
// slab, the block headers, and one gather of a.Val through the scatter map.
func (l *Layout) Assemble(a *sparse.CSR) *BlockMatrix {
	if len(a.Val) != len(l.scatter) {
		panic(fmt.Sprintf("supernode: matrix has %d entries, layout maps %d", len(a.Val), len(l.scatter)))
	}
	slab := make([]float64, l.size)
	bm := l.wrap(slab)
	for k, slot := range l.scatter {
		slab[slot] = a.Val[k]
	}
	return bm
}

// Wrap returns a block matrix whose blocks are windows of slab, which holds
// the factor values in this layout's order (BlockMatrix.Values). It is how a
// decoded factorization gets its blocks: their shapes come from the checked
// partition, so the value count is the only thing left to check.
func (l *Layout) Wrap(slab []float64) (*BlockMatrix, error) {
	if len(slab) != l.size {
		return nil, fmt.Errorf("supernode: %d factor values, partition lays out %d", len(slab), l.size)
	}
	return l.wrap(slab), nil
}

// Adopt checks that src has exactly the blocks of this layout — the block
// lists, and every block's coordinates, index lists and value count — and
// returns a block matrix over a fresh slab holding src's values. It is how a
// factorization decoded from the block-by-block format (Save v2) is
// admitted: any mismatch is an error, so no later solve indexes out of range.
func (l *Layout) Adopt(src *BlockMatrix) (*BlockMatrix, error) {
	p := l.p
	if len(src.Diag) != p.NB || len(src.LCol) != p.NB || len(src.URow) != p.NB {
		return nil, fmt.Errorf("supernode: block matrix has %d/%d/%d block lists, partition has %d blocks",
			len(src.Diag), len(src.LCol), len(src.URow), p.NB)
	}
	// Count the values src carries before allocating, so a partition that
	// lays out more than the stream holds cannot force a huge slab.
	stored := 0
	src.eachInLayoutOrder(func(blk *Block) {
		if blk != nil {
			stored += len(blk.Data)
		}
	})
	if stored != l.size {
		return nil, fmt.Errorf("supernode: block matrix holds %d values, partition lays out %d", stored, l.size)
	}
	bm := l.wrap(make([]float64, l.size))
	for b := 0; b < p.NB; b++ {
		for _, pair := range [][2][]*Block{
			{bm.Diag[b : b+1], src.Diag[b : b+1]},
			{bm.LCol[b], src.LCol[b]},
			{bm.URow[b], src.URow[b]},
		} {
			want, got := pair[0], pair[1]
			if len(got) != len(want) {
				return nil, fmt.Errorf("supernode: block row/column %d holds %d blocks of a kind, partition has %d", b, len(got), len(want))
			}
			for t, dst := range want {
				blk := got[t]
				if blk == nil || blk.I != dst.I || blk.J != dst.J || !slices.Equal(blk.Rows, dst.Rows) ||
					!slices.Equal(blk.Cols, dst.Cols) || len(blk.Data) != len(dst.Data) {
					return nil, fmt.Errorf("supernode: block (%d,%d) does not match the partition", dst.I, dst.J)
				}
				copy(dst.Data, blk.Data)
			}
		}
	}
	return bm, nil
}

// wrap returns a block matrix over slab (l.size long). The block index lists
// alias the partition: an L block's Rows is a sub-slice of LRows, a U
// block's Cols one of UCols, and diagonal blocks slice the layout's iota.
// All headers live in one []Block and the pointer tables share one []*Block.
func (l *Layout) wrap(slab []float64) *BlockMatrix {
	p := l.p
	blocks := make([]Block, l.nblocks)
	ptrs := make([]*Block, l.nblocks)
	bm := &BlockMatrix{
		P:    p,
		Diag: ptrs[:p.NB:p.NB],
		LCol: make([][]*Block, p.NB),
		URow: make([][]*Block, p.NB),
	}
	rest := ptrs[p.NB:]
	off, next := 0, 0
	place := func(i, j int, rows, cols []int32) *Block {
		n := len(rows) * len(cols)
		blk := &blocks[next]
		next++
		*blk = Block{I: i, J: j, Rows: rows, Cols: cols, Data: slab[off : off+n : off+n]}
		off += n
		return blk
	}
	// run carves the off-diagonal blocks of one row/column list out of the
	// shared pointer table.
	run := func(cut []int32) []*Block {
		n := len(cut) - 1
		if n == 0 {
			return nil
		}
		out := rest[:n:n]
		rest = rest[n:]
		return out
	}
	for b := 0; b < p.NB; b++ {
		lo, hi := p.Start[b], p.Start[b+1]
		idx := l.iota[lo:hi:hi]
		bm.Diag[b] = place(b, b, idx, idx)
		cut, lrows := l.lCut[b], p.LRows[b]
		bm.LCol[b] = run(cut)
		for t := range bm.LCol[b] {
			rows := lrows[cut[t]:cut[t+1]:cut[t+1]]
			bm.LCol[b][t] = place(p.BlockOf[rows[0]], b, rows, idx)
		}
		cut, ucols := l.uCut[b], p.UCols[b]
		bm.URow[b] = run(cut)
		for t := range bm.URow[b] {
			cols := ucols[cut[t]:cut[t+1]:cut[t+1]]
			bm.URow[b][t] = place(b, p.BlockOf[cols[0]], idx, cols)
		}
	}
	return bm
}
