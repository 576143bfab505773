package supernode

// Block is one submatrix of the 2D L/U partition, stored as a packed dense
// matrix: Rows and Cols list the global indices present (sorted), Data holds
// the len(Rows) x len(Cols) values row-major.
//
// Rows and Cols are shared and read-only: they alias the partition's LRows
// and UCols (or, for diagonal blocks, one index range shared by every block
// of the layout), so writing through them corrupts the analysis. Data is a
// window of the factorization's slab.
//
// Layout by region:
//   - diagonal blocks (I == J): full dense (all rows and columns of the block);
//   - L blocks (I > J): packed structural rows (dense subrows, Theorem 1's
//     dual), all columns of block J;
//   - U blocks (I < J): all rows of block I, packed structural columns
//     (Theorem 1's dense subcolumns).
type Block struct {
	I, J int
	Rows []int32
	Cols []int32
	Data []float64
}

// NumRows returns the packed row count.
func (b *Block) NumRows() int { return len(b.Rows) }

// NumCols returns the packed column count.
func (b *Block) NumCols() int { return len(b.Cols) }

// Bytes returns the payload size of the block's values in bytes, used by the
// communication cost model.
func (b *Block) Bytes() int { return 8 * len(b.Data) }

// RowSlice returns the packed value slice of global row r, or nil when the
// block has no such row.
func (b *Block) RowSlice(r int) []float64 {
	p := searchInt32(b.Rows, int32(r))
	if p < 0 {
		return nil
	}
	nc := len(b.Cols)
	return b.Data[p*nc : (p+1)*nc]
}

// ColPos returns the packed position of global column c, or -1.
func (b *Block) ColPos(c int) int { return searchInt32(b.Cols, int32(c)) }

// RowPos returns the packed position of global row r, or -1.
func (b *Block) RowPos(r int) int { return searchInt32(b.Rows, int32(r)) }

// At returns the value at global (r, c), or 0 when the position is not
// stored.
func (b *Block) At(r, c int) float64 {
	i := b.RowPos(r)
	j := b.ColPos(c)
	if i < 0 || j < 0 {
		return 0
	}
	return b.Data[i*len(b.Cols)+j]
}

func searchInt32(xs []int32, v int32) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(xs) && xs[lo] == v {
		return lo
	}
	return -1
}

// BlockMatrix is the partitioned working matrix: diagonal blocks plus sparse
// collections of L and U off-diagonal blocks. Its storage follows the
// partition's Layout: all block values live in one contiguous slab allocated
// per numeric factorization, and the blocks' index lists alias the
// partition's LRows/UCols (shared and read-only). The block set never changes
// during factorization — the point of the S* design — and a fresh slab per
// factorization keeps earlier factors intact when a later one fails.
type BlockMatrix struct {
	P    *Partition
	Diag []*Block
	// LCol[j] holds the L blocks of block column j, sorted by block row.
	LCol [][]*Block
	// URow[k] holds the U blocks of block row k, sorted by block column.
	URow [][]*Block
}

// Values returns the factor values in layout order — block column by block
// column, the diagonal block, then its L blocks, then its U blocks — the
// slab Layout.Wrap takes back.
func (bm *BlockMatrix) Values() []float64 {
	n := 0
	bm.eachInLayoutOrder(func(blk *Block) { n += len(blk.Data) })
	vals := make([]float64, 0, n)
	bm.eachInLayoutOrder(func(blk *Block) { vals = append(vals, blk.Data...) })
	return vals
}

func (bm *BlockMatrix) eachInLayoutOrder(f func(*Block)) {
	for b := range bm.Diag {
		for _, blocks := range [][]*Block{bm.Diag[b : b+1], bm.LCol[b], bm.URow[b]} {
			for _, blk := range blocks {
				f(blk)
			}
		}
	}
}

// BlockAt returns the block at block coordinates (i, j), or nil when the
// static structure has no such block.
func (bm *BlockMatrix) BlockAt(i, j int) *Block {
	switch {
	case i == j:
		return bm.Diag[i]
	case i > j:
		return searchBlocksByRow(bm.LCol[j], i)
	default:
		return searchBlocksByCol(bm.URow[i], j)
	}
}

func searchBlocksByRow(bs []*Block, i int) *Block {
	lo, hi := 0, len(bs)
	for lo < hi {
		mid := (lo + hi) / 2
		if bs[mid].I < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(bs) && bs[lo].I == i {
		return bs[lo]
	}
	return nil
}

func searchBlocksByCol(bs []*Block, j int) *Block {
	lo, hi := 0, len(bs)
	for lo < hi {
		mid := (lo + hi) / 2
		if bs[mid].J < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(bs) && bs[lo].J == j {
		return bs[lo]
	}
	return nil
}

// At returns the value at global (i, j), or 0 when the position is not
// stored.
func (bm *BlockMatrix) At(i, j int) float64 {
	blk := bm.BlockAt(bm.P.BlockOf[i], bm.P.BlockOf[j])
	if blk == nil {
		return 0
	}
	return blk.At(i, j)
}

// StorageEntries returns the total number of float64 slots allocated — the
// "factor entries" statistic of the block storage, including the explicit
// zeros that amalgamation and block packing introduce.
func (bm *BlockMatrix) StorageEntries() int64 {
	var total int64
	for _, d := range bm.Diag {
		total += int64(len(d.Data))
	}
	for _, col := range bm.LCol {
		for _, b := range col {
			total += int64(len(b.Data))
		}
	}
	for _, row := range bm.URow {
		for _, b := range row {
			total += int64(len(b.Data))
		}
	}
	return total
}
