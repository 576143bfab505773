package sstar

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// Replicas install whatever an OpReplicate or OpReplicateAnalysis push
// carries through Load and LoadAnalysis, so these decoders face any peer that
// can dial a shard. The frame checksums already turn random corruption into a
// clean error; these targets go past them: every frame's CRC is recomputed
// over the mutated bytes before decoding, so the fuzzer reaches the gob
// decoder and the structure checks behind it. The invariant is an error, or
// factors that solve (and, for an analysis, factorize its own pattern)
// without a panic.

// resum recomputes the CRC-32 of every complete frame in data in place (see
// internal/wire for the layout: type byte, big-endian length, big-endian
// CRC, payload) and returns data.
func resum(data []byte) []byte {
	for rest := data; len(rest) >= 9; {
		n := binary.BigEndian.Uint32(rest[1:5])
		if uint64(n) > uint64(len(rest)-9) {
			break
		}
		binary.BigEndian.PutUint32(rest[5:9], crc32.ChecksumIEEE(rest[9:9+n]))
		rest = rest[9+n:]
	}
	return data
}

// fuzzSystem is a small nonsymmetric system whose factors and analysis seed
// both targets.
func fuzzSystem(f *testing.F) *Matrix {
	a := GenGrid2D(4, 5, true, GenOptions{Seed: 91, Convection: 0.3})
	if a == nil {
		f.Fatal("generator returned nil")
	}
	return a
}

func FuzzLoad(f *testing.F) {
	a := fuzzSystem(f)
	fact, err := Factorize(a, DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fact.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte{})
	// Load still reads the previous format, so its decoder is seeded too.
	var v2 bytes.Buffer
	if err := saveV2(fact, &v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(resum(data)))
		if err != nil {
			return
		}
		b := make([]float64, got.sym.N)
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		_, _ = got.Solve(b) // an error is fine, a panic is not
	})
}

func FuzzLoadAnalysis(f *testing.F) {
	a := fuzzSystem(f)
	an, err := Analyze(a, DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := an.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadAnalysis(bytes.NewReader(resum(data)))
		if err != nil {
			return
		}
		// Factorize the analysed pattern itself, diagonally dominant where
		// the pattern has a diagonal, so a well-formed analysis succeeds.
		p := got.pat
		if p.N > 1<<12 || len(p.Ind) > 1<<16 {
			return // the target is the decoder, not allocating a huge system
		}
		m := &Matrix{N: p.N, M: p.N, RowPtr: p.Ptr, ColInd: p.Ind, Val: make([]float64, len(p.Ind))}
		for i := 0; i+1 < len(p.Ptr); i++ {
			for k := p.Ptr[i]; k < p.Ptr[i+1] && k >= 0 && k < len(p.Ind); k++ {
				m.Val[k] = -1
				if p.Ind[k] == i {
					m.Val[k] = float64(p.Ptr[i+1]-p.Ptr[i]) + 1
				}
			}
		}
		fact, err := got.FactorizeWith(m)
		if err != nil {
			return
		}
		b := make([]float64, p.N)
		for i := range b {
			b[i] = 1
		}
		_, _ = fact.Solve(b)
	})
}
