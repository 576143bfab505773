package sstar

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"sstar/internal/core"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
	"sstar/internal/wire"
)

// The on-disk format is a sequence of internal/wire frames (length-prefixed,
// CRC-32-checked payloads): one header frame identifying the format, then one
// frame per component — gob sections, except the factor values, which travel
// as one raw slab. The checksums make Load fail cleanly — never panic, never
// return silently corrupt factors — on any truncated or bit-flipped stream.
const (
	serialMagic   = "sstar-lu"
	serialVersion = 3 // v3: factor values as one raw little-endian float64 slab in layout order

	// serialVersionBlocks is the previous format, which Load still reads:
	// the factors as one gob section of every block with its index lists.
	serialVersionBlocks = 2

	analysisMagic   = "sstar-an"
	analysisVersion = 1

	frameHeader  byte = 0x48 // 'H'
	frameSection byte = 0x53 // 'S'
	frameValues  byte = 0x56 // 'V'
)

type serialHeader struct {
	Magic   string
	Version int
}

// serialTrailer carries the pattern fingerprint so a loaded factorization
// keeps rejecting mismatched-pattern Refactorize calls.
type serialTrailer struct {
	PatHash uint64
	PatNnz  int
}

// Save writes the complete factorization (symbolic analysis, numeric factors
// and pivot sequence) to w in a self-contained binary format, so an expensive
// factorization can be computed once and reused across processes.
func (f *Factorization) Save(w io.Writer) error {
	if err := wire.WriteGob(w, frameHeader, serialHeader{Magic: serialMagic, Version: serialVersion}); err != nil {
		return fmt.Errorf("sstar: save header: %w", err)
	}
	if err := wire.WriteGob(w, frameSection, f.sym); err != nil {
		return fmt.Errorf("sstar: save symbolic: %w", err)
	}
	// The block shapes follow from the partition, so the values alone
	// describe the factors: one raw slab, no per-block encoding.
	vals := f.fact.BM.Values()
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	if err := wire.WriteFrame(w, frameValues, raw); err != nil {
		return fmt.Errorf("sstar: save factors: %w", err)
	}
	sections := []struct {
		name string
		v    any
	}{
		{"pivots", f.fact.Piv},
		{"flop counts", f.fact.Fl},
		{"trailer", serialTrailer{PatHash: f.patHash, PatNnz: f.patNnz}},
	}
	for _, s := range sections {
		if err := wire.WriteGob(w, frameSection, s.v); err != nil {
			return fmt.Errorf("sstar: save %s: %w", s.name, err)
		}
	}
	return nil
}

// Load reads a factorization previously written by Save, in the current
// format or the previous one (v2). The result supports every solve variant
// (Solve, SolveTranspose, SolveMany, Refine, ...) and Refactorize with
// same-pattern matrices. Corrupt input of any kind — truncation, flipped
// bits, wrong format, or factor blocks that do not match the partition —
// returns an error; Load never panics.
func Load(r io.Reader) (*Factorization, error) {
	var h serialHeader
	if err := wire.ReadGob(r, frameHeader, 1<<16, &h); err != nil {
		return nil, fmt.Errorf("sstar: load header: %w", err)
	}
	if h.Magic != serialMagic {
		return nil, fmt.Errorf("sstar: not a factorization stream")
	}
	if h.Version != serialVersion && h.Version != serialVersionBlocks {
		return nil, fmt.Errorf("sstar: unsupported format version %d", h.Version)
	}
	var sym core.Symbolic
	if err := wire.ReadGob(r, frameSection, 0, &sym); err != nil {
		return nil, fmt.Errorf("sstar: load symbolic: %w", err)
	}
	if sym.N <= 0 || sym.Partition == nil || sym.Static == nil {
		return nil, fmt.Errorf("sstar: factorization stream is incomplete")
	}
	if err := checkSymbolic(&sym); err != nil {
		return nil, err
	}
	// The factors land in a fresh slab whose blocks the checked partition
	// lays out, with index lists aliasing it, as a computed
	// factorization's do.
	layout := supernode.NewLayout(sym.Partition)
	var bm *supernode.BlockMatrix
	var err error
	if h.Version == serialVersionBlocks {
		bm, err = loadBlocks(r, layout)
	} else {
		bm, err = loadValues(r, layout)
	}
	if err != nil {
		return nil, err
	}
	fact := &core.Factorization{BM: bm, Sym: &sym}
	var tr serialTrailer
	sections := []struct {
		name string
		v    any
	}{
		{"pivots", &fact.Piv},
		{"flop counts", &fact.Fl},
		{"trailer", &tr},
	}
	for _, s := range sections {
		if err := wire.ReadGob(r, frameSection, 0, s.v); err != nil {
			return nil, fmt.Errorf("sstar: load %s: %w", s.name, err)
		}
	}
	if len(fact.Piv) != sym.N {
		return nil, fmt.Errorf("sstar: %d pivots for order %d", len(fact.Piv), sym.N)
	}
	for m, t := range fact.Piv {
		if t < 0 || int(t) >= sym.N {
			return nil, fmt.Errorf("sstar: pivot %d of row %d is outside 0..%d", t, m, sym.N-1)
		}
	}
	return &Factorization{sym: &sym, fact: fact, patHash: tr.PatHash, patNnz: tr.PatNnz}, nil
}

// loadValues reads the factor value slab of a current-format stream.
func loadValues(r io.Reader, layout *supernode.Layout) (*supernode.BlockMatrix, error) {
	typ, raw, err := wire.ReadFrame(r, 0)
	if err == nil && (typ != frameValues || len(raw)%8 != 0) {
		err = fmt.Errorf("not a factor value slab")
	}
	if err != nil {
		return nil, fmt.Errorf("sstar: load factors: %w", err)
	}
	slab := make([]float64, len(raw)/8)
	for i := range slab {
		slab[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	bm, err := layout.Wrap(slab)
	if err != nil {
		return nil, fmt.Errorf("sstar: stream carries factors that do not match their partition: %w", err)
	}
	return bm, nil
}

// loadBlocks reads the factors of a v2 stream — every block with its
// coordinates and index lists — and admits them only if they are exactly
// the blocks the layout's partition lays out.
func loadBlocks(r io.Reader, layout *supernode.Layout) (*supernode.BlockMatrix, error) {
	var src *supernode.BlockMatrix
	if err := wire.ReadGob(r, frameSection, 0, &src); err != nil {
		return nil, fmt.Errorf("sstar: load factors: %w", err)
	}
	if src == nil {
		return nil, fmt.Errorf("sstar: factorization stream is incomplete")
	}
	bm, err := layout.Adopt(src)
	if err != nil {
		return nil, fmt.Errorf("sstar: stream carries factors that do not match their partition: %w", err)
	}
	return bm, nil
}

// analysisHeaderSections carries everything an Analysis holds beyond the
// gob-heavy symbolic structure: the options it was computed with and the
// analyzed pattern (CSR, no values).
type analysisMeta struct {
	Opts Options
	N    int
	Ptr  []int
	Ind  []int
	Key  uint64
}

// Save writes the complete analysis (options, analyzed pattern, symbolic
// structure) to w in a self-contained binary format, so an expensive analyze
// phase can be computed once and shared across processes — the cluster
// replicates analysis-cache entries between shards through exactly this
// format. The Observer option is a local-process hook and is not serialized.
func (an *Analysis) Save(w io.Writer) error {
	if err := wire.WriteGob(w, frameHeader, serialHeader{Magic: analysisMagic, Version: analysisVersion}); err != nil {
		return fmt.Errorf("sstar: save analysis header: %w", err)
	}
	opts := an.opts
	opts.Observer = nil
	meta := analysisMeta{Opts: opts, N: an.pat.N, Ptr: an.pat.Ptr, Ind: an.pat.Ind, Key: an.key}
	if err := wire.WriteGob(w, frameSection, meta); err != nil {
		return fmt.Errorf("sstar: save analysis meta: %w", err)
	}
	if err := wire.WriteGob(w, frameSection, an.sym); err != nil {
		return fmt.Errorf("sstar: save analysis symbolic: %w", err)
	}
	return nil
}

// LoadAnalysis reads an analysis previously written by Analysis.Save. The
// result behaves exactly like a freshly computed Analysis: FactorizeWith
// produces bit-identical factors, Matches verifies patterns, Key reports the
// structure key. Corrupt input of any kind returns an error, never a panic.
func LoadAnalysis(r io.Reader) (*Analysis, error) {
	var h serialHeader
	if err := wire.ReadGob(r, frameHeader, 1<<16, &h); err != nil {
		return nil, fmt.Errorf("sstar: load analysis header: %w", err)
	}
	if h.Magic != analysisMagic {
		return nil, fmt.Errorf("sstar: not an analysis stream")
	}
	if h.Version != analysisVersion {
		return nil, fmt.Errorf("sstar: unsupported analysis format version %d", h.Version)
	}
	var meta analysisMeta
	if err := wire.ReadGob(r, frameSection, 0, &meta); err != nil {
		return nil, fmt.Errorf("sstar: load analysis meta: %w", err)
	}
	var sym core.Symbolic
	if err := wire.ReadGob(r, frameSection, 0, &sym); err != nil {
		return nil, fmt.Errorf("sstar: load analysis symbolic: %w", err)
	}
	if meta.N <= 0 || len(meta.Ptr) != meta.N+1 || sym.N != meta.N || sym.Partition == nil || sym.Static == nil {
		return nil, fmt.Errorf("sstar: analysis stream is incomplete")
	}
	if err := checkPattern(meta.N, meta.Ptr, meta.Ind); err != nil {
		return nil, err
	}
	if err := checkSymbolic(&sym); err != nil {
		return nil, err
	}
	pat := &sparse.CSR{N: meta.N, M: meta.N, RowPtr: meta.Ptr, ColInd: meta.Ind}
	if err := sym.Partition.Covers(pat, sym.RowPerm, sym.ColPerm); err != nil {
		return nil, fmt.Errorf("sstar: stream carries a block structure that does not hold its pattern: %w", err)
	}
	return &Analysis{
		sym:  &sym,
		opts: meta.Opts,
		pat:  &sparse.Pattern{N: meta.N, Ptr: meta.Ptr, Ind: meta.Ind},
		key:  meta.Key,
	}, nil
}

// checkSymbolic rejects a decoded symbolic structure that is internally
// inconsistent — a checksummed stream can still carry one if it was written
// that way — so that no later Solve or FactorizeWith indexes out of range:
// both permutations must permute 0..N-1 and the block partition must pass
// supernode's Partition.Check (blocks rising from 0 to N, sorted in-range
// L/U index lists matching their block lists).
func checkSymbolic(sym *core.Symbolic) error {
	n := sym.N
	for _, perm := range [][]int{sym.RowPerm, sym.ColPerm} {
		if !isPermutation(perm, n) {
			return fmt.Errorf("sstar: stream carries a row or column permutation that does not permute 0..%d", n-1)
		}
	}
	if sym.Partition.N != n {
		return fmt.Errorf("sstar: stream carries a block partition of order %d for order %d", sym.Partition.N, n)
	}
	if err := sym.Partition.Check(); err != nil {
		return fmt.Errorf("sstar: stream carries an inconsistent block partition: %w", err)
	}
	return nil
}

// checkPattern rejects a decoded analysed pattern that is not a CSR
// structure of order n — row pointers rising from 0 to len(ind), strictly
// increasing in-range column indices per row — since FactorizeWith accepts
// exactly the matrices that repeat it and assembles their entries by it.
func checkPattern(n int, ptr, ind []int) error {
	if ptr[0] != 0 || ptr[n] != len(ind) {
		return fmt.Errorf("sstar: stream carries an analysed pattern whose row pointers do not span its %d entries", len(ind))
	}
	for i := 0; i < n; i++ {
		if ptr[i] > ptr[i+1] {
			return fmt.Errorf("sstar: stream carries an analysed pattern whose row pointers fall at row %d", i)
		}
	}
	for i := 0; i < n; i++ {
		for k := ptr[i]; k < ptr[i+1]; k++ {
			if j := ind[k]; j < 0 || j >= n || (k > ptr[i] && j <= ind[k-1]) {
				return fmt.Errorf("sstar: stream carries an analysed pattern with column %d out of order or range in row %d", j, i)
			}
		}
	}
	return nil
}

// isPermutation reports whether perm holds each of 0..n-1 exactly once.
func isPermutation(perm []int, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range perm {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
