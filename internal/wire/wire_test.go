package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

type payload struct {
	Name string
	Xs   []float64
	N    int
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []payload{
		{Name: "a", Xs: []float64{1, 2.5, -3}, N: 7},
		{Name: "", Xs: nil, N: 0},
		{Name: strings.Repeat("z", 1000), Xs: make([]float64, 512), N: -1},
	}
	for i, m := range msgs {
		if err := WriteGob(&buf, byte(i+1), m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		var got payload
		if err := ReadGob(&buf, byte(i+1), 0, &got); err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || got.N != want.N || len(got.Xs) != len(want.Xs) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	// Clean end of stream is a plain EOF.
	if _, _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

func TestFrameTypeMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGob(&buf, 5, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := ReadGob(&buf, 6, 0, &got); err == nil {
		t.Fatal("expected frame type error")
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, []byte("hello, frame")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 4); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

// TestTornFrameAllocatesWhatArrived: a header claiming a payload far past
// the bytes that follow fails without allocating the claimed size, and a
// payload larger than one read chunk still round-trips.
func TestTornFrameAllocatesWhatArrived(t *testing.T) {
	hdr := []byte{1, 0x03, 0xff, 0xff, 0xff, 0, 0, 0, 0} // claims ~64 MiB
	torn := append(hdr, "only this"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(torn), 0)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("torn frame accepted")
	}
	if allocs := after.TotalAlloc - before.TotalAlloc; allocs > 2*readChunk {
		t.Errorf("a torn frame allocated %d bytes, want at most %d", allocs, 2*readChunk)
	}

	big := bytes.Repeat([]byte{0x5a}, 3*readChunk+17)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 2, big); err != nil {
		t.Fatal(err)
	}
	if _, got, err := ReadFrame(&buf, 0); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("multi-chunk payload did not round-trip (err=%v)", err)
	}
}

func TestTruncationAlwaysErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGob(&buf, 3, payload{Name: "trunc", Xs: []float64{1, 2, 3}, N: 9}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		var got payload
		err := ReadGob(bytes.NewReader(full[:cut]), 3, 0, &got)
		if err == nil || err == io.EOF {
			t.Fatalf("truncation at %d/%d not detected (err=%v)", cut, len(full), err)
		}
	}
}

func TestBitFlipAlwaysErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGob(&buf, 3, payload{Name: "crc", Xs: []float64{4, 5, 6}, N: 2}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for pos := 0; pos < len(full); pos++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), full...)
			flipped[pos] ^= 1 << bit
			var got payload
			if err := ReadGob(bytes.NewReader(flipped), 3, 0, &got); err == nil {
				t.Fatalf("bit flip at byte %d bit %d slipped through", pos, bit)
			}
		}
	}
}

func TestDecodeGobGarbage(t *testing.T) {
	var got payload
	if err := DecodeGob([]byte{0xff, 0x01, 0x80, 0x80, 0x80}, &got); err == nil {
		t.Fatal("expected decode error on garbage")
	}
}
