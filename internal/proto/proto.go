// Package proto is the wire protocol shared by the PA-Tree server
// (internal/server) and the network client (package client): a compact
// length-prefixed binary framing with pipelined, out-of-order
// completion keyed by request id, plus the stable mapping between the
// public error taxonomy and protocol status codes.
//
// Every frame, in both directions, is
//
//	u32  length of the remainder (little-endian, < MaxFrame)
//	u64  request id (echoed verbatim in the response)
//	u8   kind (requests) / status (responses)
//	...  body
//
// Request bodies:
//
//	Put/Update: key u64 | value bytes (rest of frame)
//	Get/Delete: key u64
//	Scan:       lo u64 | hi u64 | limit i64
//	Sync:       (empty)
//	Batch:      flags u8 | count u32 | count × sub-op
//	            sub-op: kind u8 | body (Put/Update carry an explicit
//	            vlen u32 before the value, since they are not
//	            frame-delimited)
//
// Response bodies:
//
//	status OK, single op:  flags u8 (bit0 = found) | payload
//	                       (Get: value bytes; Scan: encoded pairs)
//	status OK, batch:      count u32 | count × (status u8 | flags u8 |
//	                       plen u32 | payload)
//	status != OK:          error message (optional, UTF-8)
//
// Encoded pairs: count u32 | count × (key u64 | vlen u32 | value).
//
// A batch frame is the protocol's atomicity unit: the server admits it
// through Batch.TryCommit, so a cross-shard batch applies all-or-
// nothing and a full admission ring yields one StatusBusy response for
// the whole frame with nothing admitted. StatusBusy is the wire form of
// ErrBacklog — flow control, never a dropped ack: the client backs off
// and retransmits the identical frame under the same request id.
//
// # Protocol versions and trace propagation
//
// The frames above are protocol version 0 and remain valid forever: a
// client that sends nothing else talks to every server, old or new.
// Version 1 adds an optional handshake and request-scoped trace
// propagation on top, negotiated so that neither side ever sends a
// frame its peer cannot parse:
//
//   - A Hello request (KindHello, body: version u8 | flags u8) offered
//     by the client right after dialing. A v1 server answers StatusOK
//     with the same body shape carrying the negotiated (minimum)
//     version and the intersection of the offered flags. A v0 server
//     answers StatusBadRequest ("unknown op kind"), which the client
//     treats as "version 0 negotiated" — the conversation continues in
//     plain v0 frames.
//   - After a handshake that negotiated HelloFlagTrace, a request's
//     kind byte may carry FlagSpan (bit 7). The body is then prefixed
//     with the request's span id (u64, nonzero) before the v0 payload:
//     the client's trace context, propagated so the server and engine
//     can attribute their side of the request to the same span.
//     A span id's presence is the sampled flag; unsampled requests stay
//     plain v0 frames even on a v1 connection, so trace propagation
//     costs nothing when sampling is off.
//
// Response frames never carry FlagSpan: the client already knows the
// span, so echoing it would be 8 wasted bytes per response.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	patree "github.com/patree/patree"
)

// Request kinds.
const (
	KindPut uint8 = iota + 1
	KindGet
	KindUpdate
	KindDelete
	KindScan
	KindSync
	KindBatch
	KindHello
)

// Version is the highest protocol version this build speaks. Version 0
// is the implicit pre-handshake protocol; version 1 adds the Hello
// handshake and span propagation.
const Version = 1

// Hello flag bits (offered by the client, intersected by the server).
const (
	// HelloFlagTrace: the connection may carry FlagSpan trace contexts.
	HelloFlagTrace uint8 = 1 << 0
)

// FlagSpan is bit 7 of a request's kind byte: the body is prefixed with
// a u64 span id. Only valid after a handshake negotiating
// HelloFlagTrace. KindMask strips it.
const (
	FlagSpan uint8 = 0x80
	KindMask uint8 = 0x7f
)

// Response status codes. The numeric values are wire-stable: changing
// one is a protocol break.
const (
	StatusOK           uint8 = 0
	StatusBusy         uint8 = 1
	StatusClosed       uint8 = 2
	StatusDeviceFailed uint8 = 3
	StatusBatchAborted uint8 = 4
	StatusTooLarge     uint8 = 5
	StatusBadRequest   uint8 = 6
	StatusInternal     uint8 = 7
	StatusNoSpace      uint8 = 8
)

// FoundFlag is bit0 of a response's flags byte.
const FoundFlag = 1

// MaxFrame is the largest frame either side accepts (length prefix
// excluded). It bounds a batch and a scan result; both sides enforce it.
const MaxFrame = 16 << 20

// HeaderLen is the fixed prefix of every frame body: id + kind/status.
const HeaderLen = 8 + 1

// ErrFrameTooLarge reports a frame exceeding MaxFrame; the connection
// is unrecoverable afterwards (framing is lost).
var ErrFrameTooLarge = errors.New("proto: frame exceeds MaxFrame")

// StatusOf maps an operation error to its wire status code. Unknown
// errors map to StatusInternal; their message travels in the body.
func StatusOf(err error) uint8 {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, patree.ErrBacklog):
		return StatusBusy
	case errors.Is(err, patree.ErrClosed):
		return StatusClosed
	case errors.Is(err, patree.ErrDeviceFailed):
		return StatusDeviceFailed
	case errors.Is(err, patree.ErrBatchAborted):
		return StatusBatchAborted
	case errors.Is(err, patree.ErrValueTooLarge):
		return StatusTooLarge
	case errors.Is(err, patree.ErrNoSpace):
		return StatusNoSpace
	default:
		return StatusInternal
	}
}

// ErrFromStatus maps a wire status back to the public taxonomy: the
// same sentinel the server observed, so errors.Is gives identical
// answers on both sides of the wire. A non-empty remote message is
// attached by wrapping, preserving errors.Is.
func ErrFromStatus(status uint8, msg string) error {
	var base error
	switch status {
	case StatusOK:
		return nil
	case StatusBusy:
		base = patree.ErrBacklog
	case StatusClosed:
		base = patree.ErrClosed
	case StatusDeviceFailed:
		base = patree.ErrDeviceFailed
	case StatusBatchAborted:
		base = patree.ErrBatchAborted
	case StatusTooLarge:
		base = patree.ErrValueTooLarge
	case StatusNoSpace:
		base = patree.ErrNoSpace
	case StatusBadRequest:
		if msg == "" {
			msg = "malformed request"
		}
		return fmt.Errorf("patree: remote: bad request: %s", msg)
	default:
		if msg == "" {
			msg = "internal error"
		}
		return fmt.Errorf("patree: remote: %s", msg)
	}
	if msg == "" {
		return base
	}
	return fmt.Errorf("%w (remote: %s)", base, msg)
}

// WireKind maps a staged BatchOp kind to its wire kind.
func WireKind(k patree.OpKind) uint8 {
	switch k {
	case patree.OpPut:
		return KindPut
	case patree.OpGet:
		return KindGet
	case patree.OpUpdate:
		return KindUpdate
	case patree.OpDelete:
		return KindDelete
	case patree.OpScan:
		return KindScan
	case patree.OpSync:
		return KindSync
	}
	return 0
}

// AppendFrame appends a complete frame (length prefix, id, kind, body)
// to dst and returns the extended slice.
func AppendFrame(dst []byte, id uint64, kind uint8, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(HeaderLen+len(body)))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, kind)
	return append(dst, body...)
}

// BeginFrame appends the length placeholder plus header and returns the
// extended slice and the offset of the placeholder; FinishFrame patches
// the length once the body is in place. This builds a frame in one
// buffer without assembling the body separately.
func BeginFrame(dst []byte, id uint64, kind uint8) ([]byte, int) {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, kind)
	return dst, at
}

// FinishFrame patches the length prefix begun at offset at.
func FinishFrame(dst []byte, at int) []byte {
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// ReadFrame reads one frame body (id onward) into buf, growing it as
// needed, and returns the filled slice. The returned slice aliases buf
// and is only valid until the next call.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < HeaderLen || n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// FrameID returns the request id of a frame body returned by ReadFrame.
func FrameID(body []byte) uint64 { return binary.LittleEndian.Uint64(body) }

// FrameKind returns the kind/status byte of a frame body.
func FrameKind(body []byte) uint8 { return body[8] }

// FrameBody returns the payload after the id and kind/status byte.
func FrameBody(body []byte) []byte { return body[HeaderLen:] }

// AppendPairs appends the wire encoding of scan results.
func AppendPairs(dst []byte, pairs []patree.KV) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pairs)))
	for _, kv := range pairs {
		dst = binary.LittleEndian.AppendUint64(dst, kv.Key)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(kv.Value)))
		dst = append(dst, kv.Value...)
	}
	return dst
}

// DecodePairs decodes AppendPairs output. The returned values are
// copies; they do not alias b.
func DecodePairs(b []byte) ([]patree.KV, error) {
	if len(b) < 4 {
		return nil, errMalformed
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if n == 0 {
		return nil, nil
	}
	pairs := make([]patree.KV, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 12 {
			return nil, errMalformed
		}
		key := binary.LittleEndian.Uint64(b)
		vlen := binary.LittleEndian.Uint32(b[8:])
		b = b[12:]
		if uint32(len(b)) < vlen {
			return nil, errMalformed
		}
		v := make([]byte, vlen)
		copy(v, b[:vlen])
		b = b[vlen:]
		pairs = append(pairs, patree.KV{Key: key, Value: v})
	}
	return pairs, nil
}

var errMalformed = errors.New("proto: malformed frame")

// ErrMalformed reports a structurally invalid frame body.
func ErrMalformed() error { return errMalformed }

// AppendHello appends a Hello request (or its StatusOK response — the
// body shape is shared) offering version and flags.
func AppendHello(dst []byte, id uint64, kindOrStatus uint8, version, flags uint8) []byte {
	return AppendFrame(dst, id, kindOrStatus, []byte{version, flags})
}

// ParseHello decodes a Hello body (request or response).
func ParseHello(body []byte) (version, flags uint8, err error) {
	if len(body) != 2 {
		return 0, 0, errMalformed
	}
	return body[0], body[1], nil
}

// Negotiate resolves an offered (version, flags) pair against this
// build: the lower version wins and only mutually understood flags
// survive.
func Negotiate(version, flags uint8) (uint8, uint8) {
	if version > Version {
		version = Version
	}
	if version < 1 {
		return version, 0
	}
	return version, flags & HelloFlagTrace
}

// SplitSpan strips a request frame's trace context: given the raw kind
// byte and payload it returns the bare kind, the span id (0 when the
// frame carries none) and the payload with the span prefix removed.
// A FlagSpan frame too short to hold the span id reports ok=false.
func SplitSpan(kind uint8, p []byte) (bare uint8, span uint64, rest []byte, ok bool) {
	if kind&FlagSpan == 0 {
		return kind, 0, p, true
	}
	if len(p) < 8 {
		return kind & KindMask, 0, p, false
	}
	return kind & KindMask, binary.LittleEndian.Uint64(p), p[8:], true
}
