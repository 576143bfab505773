package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"

	"sstar/internal/wire"
)

// This file is the protocol's codec: the one place that decides how a
// message is encoded. A request is hot when it is a solve, a multi-RHS solve
// or a values-only refactorize, and the response to a hot request is hot
// too. Hot messages travel in a fixed little-endian layout: a few scalars
// followed by raw float64 slabs, so encoding one costs a copy of its numbers
// and nothing else. Every other message (Hello, factorize, stats,
// replication, membership, manifest) is gob, one fresh encoder per frame:
// those are rare or large enough that gob's self-description is worth it,
// and no codec state outlives a frame.
//
// Hot request payload:
//
//	Op u8 | Handle u64 | Key u64 | TimeoutNs i64 | NRHS i64 |
//	Tenant str | B slab | Values slab
//
// Hot response payload:
//
//	Code u8 | Err str | Addr str | Epoch u64 | Handle u64 | N i64 | Nnz i64 |
//	Key u64 | QueueNs i64 | AnalyzeNs i64 | FactorNs i64 | SolveNs i64 |
//	CacheHit u8 | Patched u8 | Workers i64 | FactorWorkers i64 |
//	BatchWidth i64 | X slab
//
// A str is a u32 byte count and the bytes; a slab is a u32 element count and
// that many float64 bit patterns (math.Float64bits), so every value,
// including NaN payloads and -0, survives bit for bit. A bool is one byte,
// 0 or 1. Decoding bounds every count by the bytes left in the frame and
// rejects trailing bytes, so an accepted hot frame re-encodes to the same
// bytes.

// errLayout marks a hot message carrying a field its layout has no room
// for: a bug on the sending side, reported instead of dropping the field.
var errLayout = errors.New("field outside the hot layout")

// hot reports whether req travels in the binary layout.
func hot(req *Request) bool {
	switch req.Op {
	case OpSolve, OpSolveMany:
		return true
	case OpRefactorize:
		return req.Matrix == nil
	}
	return false
}

// WriteRequest writes req as one frame.
func WriteRequest(w io.Writer, req *Request) error {
	if !hot(req) {
		return wire.WriteGob(w, FrameRequest, req)
	}
	payload, err := encodeHotRequest(req)
	if err != nil {
		return err
	}
	return wire.WriteFrame(w, FrameHotRequest, payload)
}

// ReadRequest reads one request frame of at most maxFrame payload bytes
// (<= 0 selects wire.DefaultMaxPayload). A hot op in a gob frame and a cold
// op in a hot frame are both errors: every message has exactly one encoding.
func ReadRequest(r io.Reader, maxFrame int) (*Request, error) {
	typ, payload, err := wire.ReadFrame(r, maxFrame)
	if err != nil {
		return nil, err
	}
	req := new(Request)
	switch typ {
	case FrameRequest:
		if err := wire.DecodeGob(payload, req); err != nil {
			return nil, err
		}
		if hot(req) {
			return nil, fmt.Errorf("server: %s request in a gob frame", req.Op)
		}
	case FrameHotRequest:
		if err := decodeHotRequest(payload, req); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("server: frame type 0x%02x, want a request", typ)
	}
	return req, nil
}

// WriteResponse writes resp, the answer to req, as one frame. req is nil
// for an answer to no request (the refusal of a bad Hello).
func WriteResponse(w io.Writer, req *Request, resp *Response) error {
	if req == nil || !hot(req) {
		return wire.WriteGob(w, FrameResponse, resp)
	}
	payload, err := encodeHotResponse(resp)
	if err != nil {
		return err
	}
	return wire.WriteFrame(w, FrameHotResponse, payload)
}

// ReadResponse reads one response frame of at most maxFrame payload bytes
// (<= 0 selects wire.DefaultMaxPayload), in whichever encoding its frame
// type names.
func ReadResponse(r io.Reader, maxFrame int) (*Response, error) {
	typ, payload, err := wire.ReadFrame(r, maxFrame)
	if err != nil {
		return nil, err
	}
	resp := new(Response)
	switch typ {
	case FrameResponse:
		err = wire.DecodeGob(payload, resp)
	case FrameHotResponse:
		err = decodeHotResponse(payload, resp)
	default:
		err = fmt.Errorf("server: frame type 0x%02x, want a response", typ)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// writeHello and readHello carry the handshake, gob like every cold message.
func writeHello(w io.Writer) error {
	return wire.WriteGob(w, FrameHello, Hello{Magic: ProtoMagic, Version: ProtoVersion})
}

func readHello(r io.Reader) (Hello, error) {
	var h Hello
	err := wire.ReadGob(r, FrameHello, helloLimit, &h)
	return h, err
}

func encodeHotRequest(req *Request) ([]byte, error) {
	rest := *req
	rest.Op, rest.Handle, rest.Key, rest.TimeoutNs, rest.NRHS = 0, 0, 0, 0, 0
	rest.Tenant, rest.B, rest.Values = "", nil, nil
	if err := checkLayout(req.Op, rest); err != nil {
		return nil, err
	}
	e := make(encoder, 0, 1+4*8+3*4+len(req.Tenant)+8*(len(req.B)+len(req.Values)))
	e.u8(uint8(req.Op))
	e.u64(req.Handle)
	e.u64(req.Key)
	e.u64(uint64(req.TimeoutNs))
	e.u64(uint64(req.NRHS))
	e.str(req.Tenant)
	e.slab(req.B)
	e.slab(req.Values)
	return e, nil
}

func decodeHotRequest(payload []byte, req *Request) error {
	d := decoder{b: payload}
	req.Op = Op(d.u8())
	req.Handle = d.u64()
	req.Key = d.u64()
	req.TimeoutNs = int64(d.u64())
	req.NRHS = int(int64(d.u64()))
	req.Tenant = d.str()
	req.B = d.slab()
	req.Values = d.slab()
	if err := d.finish(); err != nil {
		return err
	}
	if !hot(req) {
		return fmt.Errorf("server: %s request in a hot frame", req.Op)
	}
	return nil
}

func encodeHotResponse(resp *Response) ([]byte, error) {
	rest := *resp
	rest.Code, rest.Err, rest.Addr, rest.Epoch = 0, "", "", 0
	rest.Handle, rest.N, rest.Nnz, rest.Key = 0, 0, 0, 0
	rest.Stats, rest.X = RequestStats{}, nil
	if err := checkLayout("response", rest); err != nil {
		return nil, err
	}
	e := make(encoder, 0, 1+2*4+5*8+7*8+2+4+len(resp.Err)+len(resp.Addr)+8*len(resp.X))
	e.u8(uint8(resp.Code))
	e.str(resp.Err)
	e.str(resp.Addr)
	e.u64(resp.Epoch)
	e.u64(resp.Handle)
	e.u64(uint64(resp.N))
	e.u64(uint64(resp.Nnz))
	e.u64(resp.Key)
	st := &resp.Stats
	e.u64(uint64(st.QueueNs))
	e.u64(uint64(st.AnalyzeNs))
	e.u64(uint64(st.FactorNs))
	e.u64(uint64(st.SolveNs))
	e.bool(st.CacheHit)
	e.bool(st.Patched)
	e.u64(uint64(st.Workers))
	e.u64(uint64(st.FactorWorkers))
	e.u64(uint64(st.BatchWidth))
	e.slab(resp.X)
	return e, nil
}

func decodeHotResponse(payload []byte, resp *Response) error {
	d := decoder{b: payload}
	resp.Code = Code(d.u8())
	resp.Err = d.str()
	resp.Addr = d.str()
	resp.Epoch = d.u64()
	resp.Handle = d.u64()
	resp.N = int(int64(d.u64()))
	resp.Nnz = int(int64(d.u64()))
	resp.Key = d.u64()
	st := &resp.Stats
	st.QueueNs = int64(d.u64())
	st.AnalyzeNs = int64(d.u64())
	st.FactorNs = int64(d.u64())
	st.SolveNs = int64(d.u64())
	st.CacheHit = d.bool()
	st.Patched = d.bool()
	st.Workers = int(int64(d.u64()))
	st.FactorWorkers = int(int64(d.u64()))
	st.BatchWidth = int(int64(d.u64()))
	resp.X = d.slab()
	return d.finish()
}

// checkLayout fails when rest, a message with its layout fields zeroed,
// still has a field set.
func checkLayout(what any, rest any) error {
	v := reflect.ValueOf(rest)
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			return fmt.Errorf("server: hot %v carries %s: %w", what, v.Type().Field(i).Name, errLayout)
		}
	}
	return nil
}

// encoder appends the layout's little-endian fields to a buffer sized up
// front.
type encoder []byte

func (e *encoder) u8(v uint8)   { *e = append(*e, v) }
func (e *encoder) u64(v uint64) { *e = binary.LittleEndian.AppendUint64(*e, v) }

func (e *encoder) bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	e.u8(b)
}

func (e *encoder) str(s string) {
	*e = binary.LittleEndian.AppendUint32(*e, uint32(len(s)))
	*e = append(*e, s...)
}

func (e *encoder) slab(xs []float64) {
	*e = binary.LittleEndian.AppendUint32(*e, uint32(len(xs)))
	for _, x := range xs {
		*e = binary.LittleEndian.AppendUint64(*e, math.Float64bits(x))
	}
}

// decoder consumes a hot payload. The first failure sticks: later reads
// return zero values and finish reports it.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("server: hot frame truncated: %d bytes wanted, %d left", n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u8() uint8 {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *decoder) u32() uint64 {
	if p := d.take(4); p != nil {
		return uint64(binary.LittleEndian.Uint32(p))
	}
	return 0
}

func (d *decoder) bool() bool {
	v := d.u8()
	if v > 1 && d.err == nil {
		d.err = fmt.Errorf("server: hot frame bool byte %d", v)
	}
	return v == 1
}

func (d *decoder) str() string {
	return string(d.take(d.u32()))
}

// slab decodes a counted float64 slab; an empty slab decodes to nil. The
// count is checked against the bytes left before anything is allocated.
func (d *decoder) slab() []float64 {
	n := d.u32()
	p := d.take(8 * n)
	if len(p) == 0 {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return xs
}

func (d *decoder) finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("server: hot frame has %d trailing bytes", len(d.b))
	}
	return d.err
}
