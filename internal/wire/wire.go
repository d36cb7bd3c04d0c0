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
	// sizing marks Decode's first pass, in which the collection readers
	// check their runs and count their entries in nElems, nExts and
	// nHashes but return nil.
	sizing                 bool
	nElems, nExts, nHashes int
	// checked marks Decode's second pass, whose words the first pass has
	// already found canonical; elems, exts and hashes are the exactly
	// sized arrays it carves its collections from, nil outside Decode,
	// where each collection gets its own.
	checked bool
	elems   []field.Element
	exts    []field.Ext
	hashes  []poseidon.HashOut
}

// Decode decodes data with decode, which it runs twice: first to check
// every bound and canonical form and to count the elements, extension
// elements and digests the collections hold, then, if that pass
// succeeds, to fill every collection from one exactly sized array per
// kind. decode must read the stream the same way both times, so its
// reads may depend on lengths and single values but not on what a
// collection reader returned; Sizing tells the passes apart. Decode
// returns the first error, or Done's.
func Decode(data []byte, decode func(*Reader)) error {
	size := Reader{data: data, sizing: true}
	decode(&size)
	if err := size.Done(); err != nil {
		return err
	}
	r := Reader{data: data, checked: true,
		elems:  make([]field.Element, size.nElems),
		exts:   make([]field.Ext, size.nExts),
		hashes: make([]poseidon.HashOut, size.nHashes)}
	decode(&r)
	return r.Done()
}

// Sizing reports whether r runs Decode's first pass, in which
// Elems, Exts and Hashes return nil.
func (r *Reader) Sizing() bool { return r.sizing }

// Carve returns the next n entries of *arena as a slice whose capacity
// ends with it, so appending to it cannot write into the next one, and
// advances *arena past them. When *arena is nil or holds fewer than n
// entries it returns a new slice instead.
func Carve[T any](arena *[]T, n int) []T {
	if *arena == nil || len(*arena) < n {
		return make([]T, n)
	}
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
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

// words returns the next n words, all canonical field elements, and
// consumes them. It fails as reading them one Elem at a time would: at
// the first non-canonical word, else at the end of the stream. A checked
// reader skips the canonical test its sizing pass already made.
func (r *Reader) words(n int) []byte {
	if r.err != nil {
		return nil
	}
	avail := (len(r.data) - r.pos) / 8
	b := r.data[r.pos : r.pos+8*min(n, avail)]
	for i := 0; i < len(b) && !r.checked; i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) >= field.Order {
			r.fail(errNonCanonical())
			return nil
		}
	}
	if n > avail {
		r.fail(ErrTruncated)
		return nil
	}
	r.pos += len(b)
	return b
}

// word returns the i'th word of b, a run words checked.
func word(b []byte, i int) field.Element {
	return field.New(binary.LittleEndian.Uint64(b[8*i:]))
}

func errNonCanonical() error {
	return fmt.Errorf("%w: non-canonical field element", ErrInvalid)
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
	b := r.words(1)
	if r.err != nil {
		return 0
	}
	return word(b, 0)
}

// Elems reads a length-prefixed element slice.
func (r *Reader) Elems() []field.Element {
	n := r.lenFor(8)
	b := r.words(n)
	if r.err != nil {
		return nil
	}
	if r.sizing {
		r.nElems += n
		return nil
	}
	out := Carve(&r.elems, n)
	for i := range out {
		out[i] = word(b, i)
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
	b := r.words(2)
	if r.err != nil {
		return field.Ext{}
	}
	return field.Ext{A: word(b, 0), B: word(b, 1)}
}

// Exts reads a length-prefixed extension slice.
func (r *Reader) Exts() []field.Ext {
	n := r.lenFor(16)
	b := r.words(2 * n)
	if r.err != nil {
		return nil
	}
	if r.sizing {
		r.nExts += n
		return nil
	}
	out := Carve(&r.exts, n)
	for i := range out {
		out[i] = field.Ext{A: word(b, 2*i), B: word(b, 2*i+1)}
	}
	return out
}

// Hash reads a digest.
func (r *Reader) Hash() poseidon.HashOut {
	var h poseidon.HashOut
	if b := r.words(len(h)); r.err == nil {
		for i := range h {
			h[i] = word(b, i)
		}
	}
	return h
}

// Hashes reads a length-prefixed digest slice.
func (r *Reader) Hashes() []poseidon.HashOut {
	n := r.lenFor(32)
	b := r.words(4 * n)
	if r.err != nil {
		return nil
	}
	if r.sizing {
		r.nHashes += n
		return nil
	}
	out := Carve(&r.hashes, n)
	for i := range out {
		for j := range out[i] {
			out[i][j] = word(b, 4*i+j)
		}
	}
	return out
}
