// Package wire implements the binary serialization used for proofs: field
// elements as fixed 8-byte little-endian words, extension elements as two
// words, digests as four, and collection lengths as uvarints. The format
// is what Table 5's proof sizes measure.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"unizk/internal/field"
	"unizk/internal/poseidon"
)

// Writer accumulates an encoded byte stream.
type Writer struct {
	buf []byte
	// lenOffsets records the byte offset of every length prefix written,
	// so tooling (the fault-injection harness) can target uvarint
	// corruption precisely.
	lenOffsets []int
}

// Bytes returns the encoded stream.
func (w *Writer) Bytes() []byte { return w.buf }

// Grow reserves room for n more bytes, so a caller that knows the
// encoded size writes it without regrowing the buffer.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// LenOffsets returns the byte offsets of every length prefix written so
// far, in write order.
func (w *Writer) LenOffsets() []int { return w.lenOffsets }

// Len writes a collection length. A negative length is an encoder bug: it
// would silently round-trip through uint64 into a huge uvarint that the
// reader misparses as a multi-gigabyte collection, so it panics instead of
// producing an undecodable stream.
func (w *Writer) Len(n int) {
	if n < 0 {
		panic(fmt.Sprintf("wire: negative collection length %d", n))
	}
	w.lenOffsets = append(w.lenOffsets, len(w.buf))
	w.buf = binary.AppendUvarint(w.buf, uint64(n))
}

// Uvarint writes a scalar varint. Unlike Len it carries no collection
// semantics: the value is not a length, is not recorded in LenOffsets,
// and the reader side applies no remaining-bytes cap.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// U64 writes a raw 64-bit word.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Elem writes a field element.
func (w *Writer) Elem(e field.Element) { w.U64(e.Uint64()) }

// Elems writes a length-prefixed element slice.
func (w *Writer) Elems(es []field.Element) {
	w.Len(len(es))
	for _, e := range es {
		w.Elem(e)
	}
}

// Blob writes a length-prefixed opaque byte string. It is used by the
// job-request encoding (internal/jobs) for nested payloads, not by the
// proof format itself.
func (w *Writer) Blob(b []byte) {
	w.Len(len(b))
	w.buf = append(w.buf, b...)
}

// Str writes a length-prefixed UTF-8 string.
func (w *Writer) Str(s string) {
	w.Len(len(s))
	w.buf = append(w.buf, s...)
}

// Ext writes an extension element.
func (w *Writer) Ext(e field.Ext) {
	w.Elem(e.A)
	w.Elem(e.B)
}

// Exts writes a length-prefixed extension slice.
func (w *Writer) Exts(es []field.Ext) {
	w.Len(len(es))
	for _, e := range es {
		w.Ext(e)
	}
}

// Hash writes a digest.
func (w *Writer) Hash(h poseidon.HashOut) {
	for _, e := range h {
		w.Elem(e)
	}
}

// Hashes writes a length-prefixed digest slice.
func (w *Writer) Hashes(hs []poseidon.HashOut) {
	w.Len(len(hs))
	for _, h := range hs {
		w.Hash(h)
	}
}

// ErrTruncated is returned when the stream ends early; ErrInvalid when a
// value is out of range.
var (
	ErrTruncated = errors.New("wire: truncated stream")
	ErrInvalid   = errors.New("wire: invalid value")
)

// maxLen bounds decoded collection lengths against resource-exhaustion
// attacks from malformed proofs.
const maxLen = 1 << 28

// Reader decodes a byte stream. The first error sticks; check Err once
// after decoding.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader wraps an encoded stream.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error.
func (r *Reader) Err() error { return r.err }

// Done reports an error unless the stream was fully consumed without
// errors.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrInvalid, len(r.data)-r.pos)
	}
	return nil
}

// More reports whether unread bytes remain after no error: how a decoder
// tells whether an optional trailing section is present.
func (r *Reader) More() bool { return r.err == nil && r.pos < len(r.data) }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Len reads a collection length. Beyond the absolute maxLen bound it caps
// the decoded value against the bytes remaining in the stream: every
// element of every collection in this format occupies at least one byte,
// so a length exceeding the remainder is corrupt and must be rejected
// before it can size an allocation.
func (r *Reader) Len() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 || v > maxLen || v > uint64(len(r.data)-r.pos-n) {
		r.fail(ErrTruncated)
		return 0
	}
	r.pos += n
	return int(v)
}

// Uvarint reads a scalar varint written by Writer.Uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.pos += n
	return v
}

// lenFor reads a collection length whose elements each occupy at least
// elemBytes, rejecting lengths the remaining stream cannot possibly hold
// (so corrupted lengths cannot trigger huge allocations).
func (r *Reader) lenFor(elemBytes int) int {
	n := r.Len()
	if r.err != nil {
		return 0
	}
	if n*elemBytes > len(r.data)-r.pos {
		r.fail(ErrTruncated)
		return 0
	}
	return n
}

// U64 reads a raw 64-bit word.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.data) {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

// Elem reads a field element, rejecting non-canonical encodings.
func (r *Reader) Elem() field.Element {
	v := r.U64()
	if v >= field.Order {
		r.fail(fmt.Errorf("%w: non-canonical field element", ErrInvalid))
		return 0
	}
	return field.New(v)
}

// Elems reads a length-prefixed element slice.
func (r *Reader) Elems() []field.Element {
	n := r.lenFor(8)
	if r.err != nil {
		return nil
	}
	out := make([]field.Element, n)
	for i := range out {
		out[i] = r.Elem()
	}
	return out
}

// Blob reads a length-prefixed opaque byte string. The decoded length is
// already capped against the remaining stream by Len, and is re-checked
// here before slicing.
func (r *Reader) Blob() []byte {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	if n > len(r.data)-r.pos {
		r.fail(ErrTruncated)
		return nil
	}
	out := append([]byte(nil), r.data[r.pos:r.pos+n]...)
	r.pos += n
	return out
}

// Str reads a length-prefixed UTF-8 string.
func (r *Reader) Str() string {
	n := r.Len()
	if r.err != nil {
		return ""
	}
	if n > len(r.data)-r.pos {
		r.fail(ErrTruncated)
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}

// Ext reads an extension element.
func (r *Reader) Ext() field.Ext {
	a := r.Elem()
	b := r.Elem()
	return field.Ext{A: a, B: b}
}

// Exts reads a length-prefixed extension slice.
func (r *Reader) Exts() []field.Ext {
	n := r.lenFor(16)
	if r.err != nil {
		return nil
	}
	out := make([]field.Ext, n)
	for i := range out {
		out[i] = r.Ext()
	}
	return out
}

// Hash reads a digest.
func (r *Reader) Hash() poseidon.HashOut {
	var h poseidon.HashOut
	for i := range h {
		h[i] = r.Elem()
	}
	return h
}

// Hashes reads a length-prefixed digest slice.
func (r *Reader) Hashes() []poseidon.HashOut {
	n := r.lenFor(32)
	if r.err != nil {
		return nil
	}
	out := make([]poseidon.HashOut, n)
	for i := range out {
		out[i] = r.Hash()
	}
	return out
}
