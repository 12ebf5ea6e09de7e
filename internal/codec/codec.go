// Package codec is the one binary reader and writer behind the repository's
// byte-slice codecs: the stream-plane frames (internal/wireproto), portable
// session state and selection-cache shards (internal/discovery), the
// snapshot envelope (package setdiscovery) and the router's persist log
// (internal/router).
//
// The encoding discipline they share: integers are uvarints unless a fixed
// width is named (BE64 for high-entropy words, LE32 for checksums), strings
// and byte blobs are uvarint-length-prefixed, booleans are one 0/1 byte.
//
// Reader treats its input as untrusted. Every length is checked against the
// remaining input before anything is sliced or allocated, list counts are
// bounded by the list's limit and by the remaining input divided by the
// smallest encoding of one element, and every failure wraps the sentinel
// the caller supplied, so callers classify errors with errors.Is. Failures are sticky: the first one
// is kept, the input is dropped, and every later read returns a zero value,
// so a decoder reads a whole structure and checks Err once.
//
// Two codecs stay outside the kit on purpose: the binary collection format
// (internal/dataset/io.go) and tree serialization (internal/tree/serialize.go)
// decode incrementally from an io.Reader and bound each allocation by the
// bytes already read. A slice reader would force them to read the whole file
// into memory first.
package codec

import (
	"encoding/binary"
	"fmt"
)

// Reader consumes the primitive encodings from a byte slice.
type Reader struct {
	data     []byte
	sentinel error
	err      error
}

// NewReader reads data; every failure wraps sentinel.
func NewReader(data []byte, sentinel error) Reader {
	return Reader{data: data, sentinel: sentinel}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) }

// Fail records a failure (unless one is already recorded), wrapping the
// sentinel, and drops the unread input. Decoders call it for semantic
// rejections so those share the sticky discipline of the primitives.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.sentinel, fmt.Sprintf(format, args...))
	}
	r.data = nil
}

// End fails on unread trailing bytes and returns the first failure.
func (r *Reader) End() error {
	if len(r.data) != 0 {
		r.Fail("%d trailing bytes", len(r.data))
	}
	return r.err
}

// next consumes n bytes, or fails and returns nil when fewer remain.
func (r *Reader) next(n int) []byte {
	if len(r.data) < n {
		r.Fail("truncated input: %d bytes wanted, %d left", n, len(r.data))
		return nil
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

// Magic consumes len(m) bytes and fails unless they spell m.
func (r *Reader) Magic(m string) {
	if b := r.next(len(m)); b != nil && string(b) != m {
		r.Fail("bad magic %q", b)
	}
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a 0/1 byte; any other value fails.
func (r *Reader) Bool() bool {
	b := r.U8()
	if b > 1 {
		r.Fail("bad bool %d", b)
	}
	return b == 1
}

// Uvarint reads a raw uvarint. Its value is unbounded: compare it with
// something before it sizes an allocation or a loop, or use Uint or Count.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Uint reads a uvarint and fails when it exceeds max.
func (r *Reader) Uint(max uint64) uint64 {
	v := r.Uvarint()
	if v > max {
		r.Fail("value %d exceeds %d", v, max)
		return 0
	}
	return v
}

// Count reads a list length and fails unless that many elements of at least
// minElemBytes (≥ 1) bytes each fit in the remaining input, so a forged
// count can neither size a large allocation nor spin a long loop.
func (r *Reader) Count(minElemBytes int) int {
	v := r.Uvarint()
	if v > uint64(len(r.data)/minElemBytes) {
		r.Fail("count %d of ≥%d-byte elements exceeds the remaining %d bytes", v, minElemBytes, len(r.data))
		return 0
	}
	return int(v)
}

// listPrealloc bounds what List allocates before any element has decoded.
const listPrealloc = 64

// List reads a counted list of at most max elements that each encode to at
// least minElemBytes bytes, calling read once per element. The count is
// checked against both bounds before any element is decoded; a list's
// protocol ceiling is max, not something its caller checks afterwards. Up
// to listPrealloc elements are allocated up front; a longer list at most
// doubles its capacity as its elements decode, never past the count, and
// decoding stops at the first failure, so a forged count costs little more
// memory than the elements actually present. An empty list is nil.
func List[T any](r *Reader, minElemBytes, max int, read func() T) []T {
	n := r.Count(minElemBytes)
	if n > max {
		r.Fail("list of %d elements exceeds the limit of %d", n, max)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, min(n, listPrealloc))
	for ; n > 0 && r.err == nil; n-- {
		if len(out) == cap(out) {
			grown := make([]T, len(out), len(out)+min(len(out), n))
			copy(grown, out)
			out = grown
		}
		out = append(out, read())
	}
	return out
}

// Bytes reads a length-prefixed byte string. The result aliases the input.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.data)) {
		r.Fail("%d-byte string exceeds the remaining %d bytes", n, len(r.data))
		return nil
	}
	return r.next(int(n))
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Rest consumes and returns all unread bytes (nil after a failure).
func (r *Reader) Rest() []byte {
	b := r.data
	r.data = nil
	return b
}

// BE64 reads a raw 8-byte big-endian word.
func (r *Reader) BE64() uint64 {
	if b := r.next(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// LE32 reads a raw 4-byte little-endian word.
func (r *Reader) LE32() uint32 {
	if b := r.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Writer appends the primitive encodings to Buf, the caller's buffer.
type Writer struct {
	Buf []byte
}

// U8 appends one byte.
func (w *Writer) U8(b byte) { w.Buf = append(w.Buf, b) }

// Bool appends a 0/1 byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Uvarint appends v as a uvarint.
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.Buf = append(w.Buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// BE64 appends an 8-byte big-endian word.
func (w *Writer) BE64(v uint64) { w.Buf = binary.BigEndian.AppendUint64(w.Buf, v) }

// LE32 appends a 4-byte little-endian word.
func (w *Writer) LE32(v uint32) { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
