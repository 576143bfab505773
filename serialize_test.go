package sstar

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"sstar/internal/core"
	"sstar/internal/supernode"
	"sstar/internal/wire"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	a := GenGrid2D(10, 10, false, GenOptions{Seed: 75, WeakDiagFraction: 0.15})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(a.N, 76)
	x1, _ := f.Solve(b)
	x2, err := g.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("loaded factorization solves differently at %d", i)
		}
	}
	// Transpose solve and refactorize must work on the loaded object too.
	xt, err := g.SolveTranspose(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a.Transpose(), xt, b); r > 1e-9 {
		t.Fatalf("loaded transpose residual %g", r)
	}
	a2 := a.Clone()
	for i := range a2.Val {
		a2.Val[i] *= 2
	}
	if err := g.Refactorize(a2); err != nil {
		t.Fatal(err)
	}
	x3, _ := g.Solve(b)
	if r := Residual(a2, x3, b); r > 1e-9 {
		t.Fatalf("loaded refactorize residual %g", r)
	}
	// Sanity: halving all values doubles the solution.
	for i := range x3 {
		if math.Abs(2*x3[i]-x1[i]) > 1e-8*(1+math.Abs(x1[i])) {
			t.Fatalf("scaled refactorization inconsistent at %d", i)
		}
	}
}

func TestLoadedFactorizationKeepsPatternCheck(t *testing.T) {
	a := GenGrid2D(8, 8, false, GenOptions{Seed: 31})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A different-structure matrix of the same order must still be rejected
	// after the round trip: the pattern fingerprint travels with the stream.
	if err := g.Refactorize(GenGrid2D(8, 8, true, GenOptions{Seed: 31})); err == nil {
		t.Fatal("loaded factorization accepted a different pattern")
	}
}

// TestLoadNeverPanicsOnCorruption is the corruption fuzz of the wire format:
// truncate the stream at every length and flip bits across the stream; Load
// must return an error every time and may never panic or succeed.
func TestLoadNeverPanicsOnCorruption(t *testing.T) {
	a := GenGrid2D(6, 6, false, GenOptions{Seed: 32})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	load := func(what string, data []byte) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Load panicked on %s: %v", what, p)
			}
		}()
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Fatalf("Load accepted %s", what)
		}
	}
	// Every truncation point (stride keeps the test fast on big streams).
	stride := len(full)/512 + 1
	for cut := 0; cut < len(full); cut += stride {
		load(fmt.Sprintf("truncation at %d/%d", cut, len(full)), full[:cut])
	}
	// Single-bit flips across the stream: the per-frame CRC must catch all
	// of them (a flip in a length field trips the checksum or size bound).
	for pos := 0; pos < len(full); pos += stride {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[pos] ^= 1 << bit
			load(fmt.Sprintf("bit flip at byte %d bit %d", pos, bit), mut)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("this is not a factorization")); err == nil {
		t.Fatal("expected error for garbage stream")
	}
	var buf bytes.Buffer
	a := GenDense(8, 77)
	f, _ := Factorize(a, DefaultOptions())
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate: must fail cleanly.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

// TestAnalysisSaveLoadRoundTrip: a saved symbolic analysis reloads into an
// equivalent object — same key, same options, matching pattern — and
// FactorizeWith on the loaded analysis produces bit-identical factors. This
// is the contract cluster analysis replication rides on: a shard that
// receives the blob factorizes exactly as the shard that analyzed.
func TestAnalysisSaveLoadRoundTrip(t *testing.T) {
	a := GenGrid2D(11, 9, true, GenOptions{Seed: 78, Convection: 0.25})
	opts := DefaultOptions()
	an, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := an.Save(&buf); err != nil {
		t.Fatal(err)
	}
	an2, err := LoadAnalysis(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if an2.Key() != an.Key() {
		t.Fatalf("loaded key %#x, want %#x", an2.Key(), an.Key())
	}
	if an2.Options() != an.Options() {
		t.Fatalf("loaded options %+v, want %+v", an2.Options(), an.Options())
	}
	if !an2.Matches(a) {
		t.Fatal("loaded analysis does not match its own pattern")
	}
	f1, err := an.FactorizeWith(a)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := an2.FactorizeWith(a)
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(a.N, 79)
	x1, err := f1.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := f2.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("loaded-analysis factorization solves differently at %d", i)
		}
	}
	// An observer never travels: Save strips it so the blob is stable and the
	// receiver's cache equality check is not poisoned by a foreign pointer.
	opts2 := opts
	opts2.Observer = newRecordingObserver()
	an3, err := Analyze(a, opts2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := an3.Save(&buf); err != nil {
		t.Fatal(err)
	}
	an4, err := LoadAnalysis(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if an4.Options().Observer != nil {
		t.Fatal("observer survived the analysis round trip")
	}
}

// TestLoadAnalysisNeverPanicsOnCorruption: truncations and bit flips across
// an analysis stream must fail with an error, never panic or load.
func TestLoadAnalysisNeverPanicsOnCorruption(t *testing.T) {
	a := GenGrid2D(7, 6, false, GenOptions{Seed: 80})
	an, err := Analyze(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := an.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	load := func(what string, data []byte) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("LoadAnalysis panicked on %s: %v", what, p)
			}
		}()
		if _, err := LoadAnalysis(bytes.NewReader(data)); err == nil {
			t.Fatalf("LoadAnalysis accepted %s", what)
		}
	}
	stride := len(full)/512 + 1
	for cut := 0; cut < len(full); cut += stride {
		load(fmt.Sprintf("truncation at %d/%d", cut, len(full)), full[:cut])
	}
	for pos := 0; pos < len(full); pos += stride {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[pos] ^= 1 << bit
			load(fmt.Sprintf("bit flip at byte %d bit %d", pos, bit), mut)
		}
	}
	load("garbage", []byte("this is not an analysis"))
	// A factorization stream is not an analysis stream and vice versa.
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	load("a factorization stream", buf.Bytes())
}

// firstLBlock returns the first L block of f's block matrix.
func firstLBlock(t *testing.T, f *core.Factorization) *supernode.Block {
	t.Helper()
	for _, col := range f.BM.LCol {
		if len(col) > 0 {
			return col[0]
		}
	}
	t.Fatal("factorization has no L block")
	return nil
}

// TestLoadRejectsInconsistentStructure: a stream whose frames all checksum
// cleanly can still carry a structure that is inconsistent with itself (a
// buggy or hostile writer, or a replication push). Load and LoadAnalysis
// must refuse it with an error instead of handing back factors that panic
// in a later Solve or FactorizeWith.
func TestLoadRejectsInconsistentStructure(t *testing.T) {
	a := GenGrid2D(6, 6, false, GenOptions{Seed: 34})
	symMuts := map[string]func(sym *core.Symbolic){
		"row permutation entry out of range":  func(sym *core.Symbolic) { sym.RowPerm[0] = 1 << 20 },
		"column permutation repeats an entry": func(sym *core.Symbolic) { sym.ColPerm[0] = sym.ColPerm[1] },
		"short row permutation":               func(sym *core.Symbolic) { sym.RowPerm = sym.RowPerm[:sym.N-1] },
		"partition ends short of N":           func(sym *core.Symbolic) { sym.Partition.Start[sym.Partition.NB]-- },
		"partition not rising":                func(sym *core.Symbolic) { sym.Partition.Start[1] = 0 },
		"partition L row out of range": func(sym *core.Symbolic) {
			for _, rows := range sym.Partition.LRows {
				if len(rows) > 0 {
					rows[len(rows)-1] = 1 << 20
					return
				}
			}
		},
	}
	factMuts := map[string]func(f *core.Factorization){
		"short pivot sequence": func(f *core.Factorization) { f.Piv = f.Piv[:len(f.Piv)-1] },
		"pivot out of range":   func(f *core.Factorization) { f.Piv[0] = 1 << 20 },
		"negative pivot":       func(f *core.Factorization) { f.Piv[1] = -1 },
		// Block shapes are not in the stream (they follow from the
		// partition), so a damaged block shows as a wrong value count.
		"L block data one entry short": func(f *core.Factorization) {
			lb := firstLBlock(t, f)
			lb.Data = lb.Data[:len(lb.Data)-1]
		},
		"L block data one entry long": func(f *core.Factorization) {
			lb := firstLBlock(t, f)
			lb.Data = append(lb.Data, 1)
		},
		"L block dropped from its column": func(f *core.Factorization) {
			lb := firstLBlock(t, f)
			f.BM.LCol[lb.J] = f.BM.LCol[lb.J][1:]
		},
	}
	// A v2 stream carries every block's index lists, so it can also
	// disagree with the partition in a way the current format cannot.
	blockMuts := map[string]func(f *core.Factorization){
		"L block row index out of range": func(f *core.Factorization) {
			// Index lists are shared with the partition: mutate a copy.
			lb := firstLBlock(t, f)
			lb.Rows = append([]int32(nil), lb.Rows...)
			lb.Rows[0] = 1 << 20
		},
	}
	for name, mut := range symMuts {
		factMuts[name] = func(f *core.Factorization) { mut(f.Sym) }
	}
	check := func(format string, save func(*Factorization, io.Writer) error, muts map[string]func(*core.Factorization)) {
		for name, mut := range muts {
			f, err := Factorize(a, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			mut(f.fact)
			var buf bytes.Buffer
			if err := save(f, &buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(&buf); err == nil {
				t.Errorf("Load accepted a %s factorization with %s", format, name)
			}
		}
	}
	check("current-format", (*Factorization).Save, factMuts)
	check("v2", saveV2, factMuts)
	check("v2", saveV2, blockMuts)
	for name, mut := range symMuts {
		an, err := Analyze(a, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		mut(an.sym)
		var buf bytes.Buffer
		if err := an.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadAnalysis(&buf); err == nil {
			t.Errorf("LoadAnalysis accepted an analysis with %s", name)
		}
	}
}

// saveV2 writes f in the previous Save format (v2): the factors as one gob
// section holding every block with its coordinates and index lists.
func saveV2(f *Factorization, w io.Writer) error {
	if err := wire.WriteGob(w, frameHeader, serialHeader{Magic: serialMagic, Version: serialVersionBlocks}); err != nil {
		return err
	}
	for _, v := range []any{f.sym, f.fact.BM, f.fact.Piv, f.fact.Fl, serialTrailer{PatHash: f.patHash, PatNnz: f.patNnz}} {
		if err := wire.WriteGob(w, frameSection, v); err != nil {
			return err
		}
	}
	return nil
}

// TestLoadReadsVersion2: factorizations saved in the previous format stay
// loadable. testdata/factors-v2.bin was written by the v2 Save of the
// factorization below; it and a v2 stream written now both load, solve
// bitwise equal to the fresh factors and refactorize.
func TestLoadReadsVersion2(t *testing.T) {
	a := GenGrid2D(6, 6, false, GenOptions{Seed: 34})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile("testdata/factors-v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	if err := saveV2(f, &fresh); err != nil {
		t.Fatal(err)
	}
	b := rhs(a.N, 35)
	want, _ := f.Solve(b)
	for name, stream := range map[string][]byte{"fixture": fixture, "fresh v2 stream": fresh.Bytes()} {
		g, err := Load(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x, err := g.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: X[%d] differs bitwise from the fresh factors", name, i)
			}
		}
		if err := g.Refactorize(a); err != nil {
			t.Fatalf("%s: refactorize: %v", name, err)
		}
	}
}
