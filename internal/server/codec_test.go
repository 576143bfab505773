package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"sstar"
	"sstar/internal/wire"
)

// oddFloats are the values a lossy float encoding would mangle: NaN with a
// payload, both zeros, both infinities, a subnormal and the extremes.
var oddFloats = []float64{
	math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64, -1.5,
}

// hotRequests covers every hot op, with and without optional fields.
func hotRequests() []*Request {
	return []*Request{
		{Op: OpSolve, Handle: 7, Key: 0xfeed, B: []float64{1, 2, 3}},
		{Op: OpSolve, Handle: 1, B: oddFloats, TimeoutNs: 5e8, Tenant: "prod"},
		{Op: OpSolve, Handle: 2},                         // empty B
		{Op: OpSolve, Handle: 2, B: []float64{}},         // empty, non-nil B
		{Op: OpSolve, TimeoutNs: -1, Tenant: "\x00\xff"}, // hostile scalars survive too
		{Op: OpSolveMany, Handle: 3, Key: 9, NRHS: 4, B: append(append([]float64{}, oddFloats...), oddFloats...)},
		{Op: OpSolveMany, Handle: 3, NRHS: 1 << 62},
		{Op: OpRefactorize, Handle: 4, Key: 11, Values: oddFloats, Tenant: "batch"},
		{Op: OpRefactorize, Handle: 4},
	}
}

// hotResponses covers successes of every hot op and the error answers a hot
// request can get, including placement refusals.
func hotResponses() []*Response {
	return []*Response{
		{Handle: 7, X: oddFloats, Stats: RequestStats{QueueNs: 1, SolveNs: 2, Workers: 2, FactorWorkers: 1, BatchWidth: 3}},
		{X: []float64{}},
		{Handle: 4, N: 400, Nnz: 1920, Key: 0xbeef, Stats: RequestStats{QueueNs: 1, AnalyzeNs: 2, FactorNs: 3, CacheHit: true, Patched: true, Workers: 2, FactorWorkers: 2}},
		{Err: "not owner: handle 7", Code: CodeNotOwner, Addr: "10.0.0.3:7071", Key: 1, Epoch: 4},
		{Err: "redirect", Code: CodeRedirect, Addr: "127.0.0.1:7072", Epoch: math.MaxUint64},
		{Err: "sstar: unknown handle", Code: CodeBadHandle},
		{Err: "overloaded", Code: CodeOverloaded},
		{Err: "odd code", Code: Code(250)},
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns (an
// empty slice and nil count as equal).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCodecRequestRoundTrip(t *testing.T) {
	for i, req := range hotRequests() {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		frame := append([]byte(nil), buf.Bytes()...)
		if frame[0] != FrameHotRequest {
			t.Fatalf("request %d (%s): frame type 0x%02x, want the hot layout", i, req.Op, frame[0])
		}
		got, err := ReadRequest(&buf, 0)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !sameBits(got.B, req.B) || !sameBits(got.Values, req.Values) {
			t.Fatalf("request %d: slabs changed: B %v -> %v, Values %v -> %v", i, req.B, got.B, req.Values, got.Values)
		}
		want := *req
		want.B, want.Values, got.B, got.Values = nil, nil, nil, nil
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("request %d: got %+v, want %+v", i, *got, want)
		}
		// An accepted hot frame has one encoding.
		got.B, got.Values = req.B, req.Values
		var again bytes.Buffer
		if err := WriteRequest(&again, got); err != nil || !bytes.Equal(again.Bytes(), frame) {
			t.Fatalf("request %d: re-encode differs (err %v)", i, err)
		}
	}
}

func TestCodecResponseRoundTrip(t *testing.T) {
	for _, req := range hotRequests() {
		for i, resp := range hotResponses() {
			var buf bytes.Buffer
			if err := WriteResponse(&buf, req, resp); err != nil {
				t.Fatalf("%s response %d: %v", req.Op, i, err)
			}
			if typ := buf.Bytes()[0]; typ != FrameHotResponse {
				t.Fatalf("%s response %d: frame type 0x%02x, want the hot layout", req.Op, i, typ)
			}
			got, err := ReadResponse(&buf, 0)
			if err != nil {
				t.Fatalf("%s response %d: %v", req.Op, i, err)
			}
			if !sameBits(got.X, resp.X) {
				t.Fatalf("%s response %d: X %v -> %v", req.Op, i, resp.X, got.X)
			}
			want := *resp
			want.X, got.X = nil, nil
			if !reflect.DeepEqual(*got, want) {
				t.Fatalf("%s response %d: got %+v, want %+v", req.Op, i, *got, want)
			}
		}
	}
}

// TestCodecColdStaysGob: every other message keeps the gob frames, the
// full-matrix refactorize included.
func TestCodecColdStaysGob(t *testing.T) {
	a := sstar.GenGrid2D(3, 3, false, sstar.GenOptions{Seed: 1})
	for _, req := range []*Request{
		{Op: OpPing},
		{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()},
		{Op: OpRefactorize, Handle: 1, Matrix: a},
		{Op: OpMembership, Epoch: 3, Members: []string{"a", "b"}, Join: true},
		{Op: OpReplicate, Handle: 1, Blob: []byte{1, 2}, ValEpoch: 2},
	} {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
		if typ := buf.Bytes()[0]; typ != FrameRequest {
			t.Fatalf("%s: frame type 0x%02x, want gob", req.Op, typ)
		}
		got, err := ReadRequest(&buf, 0)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if got.Op != req.Op || got.Handle != req.Handle || (req.Matrix != nil) != (got.Matrix != nil) {
			t.Fatalf("%s: decoded %+v", req.Op, got)
		}
		resp := &Response{Handle: 1, Replica: "r", Manifest: []ManifestEntry{{Handle: 1}}}
		buf.Reset()
		if err := WriteResponse(&buf, req, resp); err != nil {
			t.Fatal(err)
		}
		if typ := buf.Bytes()[0]; typ != FrameResponse {
			t.Fatalf("%s response: frame type 0x%02x, want gob", req.Op, typ)
		}
	}
}

// TestCodecRejectsStrayField: a hot message carrying a field its layout has
// no room for is an encode error, never a silently dropped field.
func TestCodecRejectsStrayField(t *testing.T) {
	a := sstar.GenGrid2D(3, 3, false, sstar.GenOptions{Seed: 1})
	for _, req := range []*Request{
		{Op: OpSolve, Handle: 1, Matrix: a},
		{Op: OpSolve, Handle: 1, Opts: sstar.Options{BlockSize: 25}},
		{Op: OpSolveMany, Handle: 1, NRHS: 2, Blob: []byte{1}},
		{Op: OpRefactorize, Handle: 1, Values: []float64{1}, Members: []string{"x"}},
		{Op: OpSolve, Epoch: 1},
		{Op: OpSolve, ValEpoch: 1},
		{Op: OpSolve, Join: true},
	} {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); !errors.Is(err, errLayout) {
			t.Fatalf("request %+v: err %v, want a layout error", req, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("request %+v: %d bytes written despite the error", req, buf.Len())
		}
	}
	solve := &Request{Op: OpSolve}
	for _, resp := range []*Response{
		{Manifest: []ManifestEntry{}},
		{Replica: "127.0.0.1:7073"},
		{Members: []string{"a"}},
		{Server: ServerStats{Requests: 1}},
		{Server: ServerStats{Tenants: map[string]TenantStats{}}},
	} {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, solve, resp); !errors.Is(err, errLayout) {
			t.Fatalf("response %+v: err %v, want a layout error", resp, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("response %+v: %d bytes written despite the error", resp, buf.Len())
		}
	}
	// The response layout spells out RequestStats field by field: a new
	// field needs a layout change, not a silent drop.
	if n := reflect.TypeOf(RequestStats{}).NumField(); n != 9 {
		t.Fatalf("RequestStats has %d fields, the hot response layout carries 9", n)
	}
}

// hotFrame wraps a raw payload in a valid frame (checksum and all), so the
// payload reaches the hot decoder.
func hotFrame(typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, typ, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// malformedHotFrames are well-framed hot payloads the decoder must refuse.
func malformedHotFrames() map[string][]byte {
	req, _ := encodeHotRequest(&Request{Op: OpSolve, Handle: 1, B: []float64{1, 2}})
	resp, _ := encodeHotResponse(&Response{X: []float64{1, 2}})
	// Byte offsets into the two payloads: B's count, X's count, CacheHit.
	reqB, respX, respBool := 1+4*8+4, len(resp)-4-2*8, 1+2*4+5*8+4*8
	patch := func(p []byte, at int, b ...byte) []byte {
		p = append([]byte(nil), p...)
		copy(p[at:], b)
		return p
	}
	huge := binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
	cold := patch(req, 0, byte(OpFactorize))
	return map[string][]byte{
		"req count past end":  hotFrame(FrameHotRequest, patch(req, reqB, huge...)),
		"req trailing byte":   hotFrame(FrameHotRequest, append(append([]byte(nil), req...), 0)),
		"req truncated":       hotFrame(FrameHotRequest, req[:len(req)-3]),
		"req cold op":         hotFrame(FrameHotRequest, cold),
		"req unknown op":      hotFrame(FrameHotRequest, patch(req, 0, 200)),
		"req empty":           hotFrame(FrameHotRequest, nil),
		"resp count past end": hotFrame(FrameHotResponse, patch(resp, respX, huge...)),
		"resp trailing byte":  hotFrame(FrameHotResponse, append(append([]byte(nil), resp...), 0)),
		"resp truncated":      hotFrame(FrameHotResponse, resp[:len(resp)-1]),
		"resp bool byte 2":    hotFrame(FrameHotResponse, patch(resp, respBool, 2)),
		"resp as request":     hotFrame(FrameHotRequest, resp),
		"req as response":     hotFrame(FrameHotResponse, req),
		"hot op in gob frame": gobFrame(FrameRequest, &Request{Op: OpSolve, B: []float64{1}}),
	}
}

func gobFrame(typ byte, v any) []byte {
	var buf bytes.Buffer
	if err := wire.WriteGob(&buf, typ, v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestCodecRejectsMalformedHotFrame(t *testing.T) {
	for name, frame := range malformedHotFrames() {
		if _, err := ReadRequest(bytes.NewReader(frame), 0); err == nil {
			t.Errorf("%s: accepted as a request", name)
		}
		if _, err := ReadResponse(bytes.NewReader(frame), 0); err == nil {
			t.Errorf("%s: accepted as a response", name)
		}
	}
}

// TestCodecServeConnReportsStrayField: a handler answering a hot request
// with an out-of-layout field ends the connection and ServeConn reports the
// codec's refusal instead of swallowing it.
func TestCodecServeConnReportsStrayField(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		served <- ServeConn(conn, 0, func(*Request) *Response {
			return &Response{X: []float64{1}, Replica: "stray"}
		})
	}()
	p := NewPool("tcp", time.Second, 1, 0)
	defer p.Close()
	if _, _, err := p.Call(context.Background(), l.Addr().String(), &Request{Op: OpSolve, B: []float64{1}}); err == nil {
		t.Fatal("solve answered despite the stray response field")
	}
	if err := <-served; !errors.Is(err, errLayout) {
		t.Fatalf("ServeConn returned %v, want the layout error", err)
	}
}

// BenchmarkCodecSolveRoundTrip times one n=400 solve exchange through the
// codec: request encode and decode, response encode and decode.
func BenchmarkCodecSolveRoundTrip(b *testing.B) {
	req := &Request{Op: OpSolve, Handle: 1, Key: 2, B: make([]float64, 400), TimeoutNs: 1e9}
	resp := &Response{Handle: 1, X: make([]float64, 400), Stats: RequestStats{QueueNs: 1, SolveNs: 1, Workers: 2, BatchWidth: 1}}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteRequest(&buf, req); err != nil {
			b.Fatal(err)
		}
		got, err := ReadRequest(&buf, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteResponse(&buf, got, resp); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadResponse(&buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}
