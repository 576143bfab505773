// Package wire implements the length-prefixed binary frame codec shared by
// the factorization serializer (Save/Load) and the solver-service protocol.
//
// A frame is:
//
//	byte 0      frame type
//	bytes 1-4   payload length, big-endian uint32
//	bytes 5-8   CRC-32 (IEEE) of the payload, big-endian uint32
//	bytes 9-    payload
//
// The payload is opaque to this package. The serializer and the service's
// control-plane messages put a gob-encoded value there (WriteGob/ReadGob);
// the service's hot-path messages use a fixed binary layout of their own
// (internal/server/codec.go).
//
// The explicit length bounds the allocation a reader performs before any
// payload byte is trusted, and the checksum turns every corruption — a
// flipped bit no less than a truncated stream — into a clean error instead
// of silently wrong numbers. Decoding recovers internal gob panics, so a
// hostile or damaged stream can never take the process down.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// DefaultMaxPayload caps a frame payload when the caller does not supply a
// tighter bound (64 MiB holds the factors of every matrix in the bench
// suite with an order of magnitude to spare).
const DefaultMaxPayload = 64 << 20

const headerSize = 1 + 4 + 4

// readChunk is the payload allocated before any payload byte arrives; a
// larger payload doubles its buffer as it is read.
const readChunk = 1 << 20

// ErrFrameTooLarge reports a frame whose declared payload exceeds the
// caller's bound — corrupt length bytes or an oversized message.
var ErrFrameTooLarge = errors.New("wire: frame exceeds payload limit")

// ErrChecksum reports a payload whose CRC-32 does not match its header.
var ErrChecksum = errors.New("wire: frame checksum mismatch")

// WriteFrame writes one frame with the given type byte and payload. Header
// and payload go out in one net.Buffers write: one writev system call on a
// socket, so a small frame leaves as one segment, not two.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > DefaultMaxPayload {
		return ErrFrameTooLarge
	}
	hdr := make([]byte, headerSize)
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	bufs := net.Buffers{hdr, payload}
	if _, err := bufs.WriteTo(w); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame, enforcing maxPayload (<= 0 selects
// DefaultMaxPayload) before allocating and verifying the checksum after
// reading. A clean EOF before the first header byte returns io.EOF so
// callers can distinguish "peer closed" from a torn frame.
func ReadFrame(r io.Reader, maxPayload int) (typ byte, payload []byte, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [headerSize]byte
	// ReadFull reports io.EOF only when no byte arrived at all; a header cut
	// short comes back as io.ErrUnexpectedEOF.
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if int64(n) > int64(maxPayload) {
		return 0, nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, maxPayload)
	}
	// The payload grows as bytes arrive rather than as the header claims, so
	// a torn or hostile header costs what was actually sent, not maxPayload.
	payload = make([]byte, min(int(n), readChunk))
	for off := 0; ; {
		m, err := io.ReadFull(r, payload[off:])
		if err != nil {
			return 0, nil, fmt.Errorf("wire: read frame payload: %w", noEOF(err))
		}
		if off += m; off == int(n) {
			break
		}
		payload = append(payload, make([]byte, min(int(n)-off, off))...)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(hdr[5:9]); got != want {
		return 0, nil, fmt.Errorf("%w: computed %08x, header %08x", ErrChecksum, got, want)
	}
	return hdr[0], payload, nil
}

// noEOF upgrades a bare EOF mid-frame to ErrUnexpectedEOF: the stream ended
// inside a frame, which is always corruption, never a clean close.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WriteGob gob-encodes v and writes it as one frame of the given type.
func WriteGob(w io.Writer, typ byte, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	return WriteFrame(w, typ, buf.Bytes())
}

// ReadGob reads one frame, checks its type against want, and gob-decodes the
// payload into v.
func ReadGob(r io.Reader, want byte, maxPayload int, v any) error {
	typ, payload, err := ReadFrame(r, maxPayload)
	if err != nil {
		return err
	}
	if typ != want {
		return fmt.Errorf("wire: frame type 0x%02x, want 0x%02x", typ, want)
	}
	return DecodeGob(payload, v)
}

// DecodeGob gob-decodes payload into v, converting any internal decoder
// panic on malformed input into an error.
func DecodeGob(payload []byte, v any) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("wire: decode panic: %v", p)
		}
	}()
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}
