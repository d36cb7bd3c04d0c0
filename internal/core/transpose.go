package core

import (
	"unizk/internal/field"
	"unizk/internal/ntt"
)

// TransposeBuffer is the functional model of the global transpose buffer
// (§4, §5.1): a b×b element tile written in one orientation and read in
// the other, converting between polynomial-major and index-major layouts
// while data streams between DRAM and the VSAs. The paper uses b = 16 "so
// the memory accesses are sufficiently consecutive while the transpose
// buffer capacity is still acceptable".
type TransposeBuffer struct {
	b    int
	tile []field.Element
	// Cycles counts buffer passes (one per tile).
	Cycles int64
}

// NewTransposeBuffer returns a buffer for b×b tiles.
func NewTransposeBuffer(b int) *TransposeBuffer {
	if b < 1 {
		panic("core: transpose batch must be positive")
	}
	return &TransposeBuffer{b: b, tile: make([]field.Element, b*b)}
}

// Capacity returns the buffer size in elements (b², §5.1).
func (t *TransposeBuffer) Capacity() int { return t.b * t.b }

// Transpose converts a rows×cols matrix between layouts by streaming b×b
// tiles through the buffer: in[r*cols+c] → out[c*rows+r]. Dimensions need
// not be multiples of b (edge tiles are partial).
func (t *TransposeBuffer) Transpose(in []field.Element, rows, cols int) []field.Element {
	if len(in) != rows*cols {
		panic("core: transpose dimensions do not match data")
	}
	out := make([]field.Element, len(in))
	for r0 := 0; r0 < rows; r0 += t.b {
		for c0 := 0; c0 < cols; c0 += t.b {
			// Write the tile row-major...
			h := min(t.b, rows-r0)
			w := min(t.b, cols-c0)
			for r := 0; r < h; r++ {
				copy(t.tile[r*t.b:r*t.b+w], in[(r0+r)*cols+c0:(r0+r)*cols+c0+w])
			}
			// ...and read it column-major.
			for c := 0; c < w; c++ {
				for r := 0; r < h; r++ {
					out[(c0+c)*rows+r0+r] = t.tile[r*t.b+c]
				}
			}
			t.Cycles++
		}
	}
	return out
}

// BitReverseLocalShuffle demonstrates the §5.1 "NTT variants" layout
// argument: with the multi-dimensional decomposition, writing a size-N
// result in bit-reversed order only requires local shuffles among groups
// of 2^innerBits elements that are already resident on chip — the
// bit-reversal of the index's high bits maps a stride-(N/2^innerBits)
// gather onto short in-buffer permutations, keeping off-chip accesses
// consecutive. It returns the bit-reversed-order vector computed strictly
// through such group-local shuffles.
func BitReverseLocalShuffle(data []field.Element, innerBits int) []field.Element {
	n := len(data)
	logN := ntt.Log2(n)
	if innerBits < 0 || innerBits > logN {
		panic("core: inner dimension out of range")
	}
	groups := 1 << innerBits
	stride := n / groups
	outerBits := logN - innerBits
	out := make([]field.Element, n)
	// Each outer position j gathers the short list {data[j + i·stride]}
	// (the elements the last decomposed dimension produces together
	// on-chip), shuffles it locally by bit-reversing the inner index, and
	// writes the whole group contiguously at the outer-reversed offset —
	// every off-chip write is a consecutive run of 2^innerBits elements.
	for j := 0; j < stride; j++ {
		base := ntt.BitReverse(j, outerBits) * groups
		for i := 0; i < groups; i++ {
			out[base+ntt.BitReverse(i, innerBits)] = data[j+i*stride]
		}
	}
	return out
}
