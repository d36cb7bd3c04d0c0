package poseidon

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"unizk/internal/field"
)

// x8Edges are raw lane values where the vector carry, borrow and
// reduction masks fire: around 2^32, p and 2^64, including
// non-canonical representatives, and limbs at their extremes.
var x8Edges = []uint64{
	0, 1, epsilon, 1 << 32, 1<<32 + 1, 1 << 63,
	field.Order - 1, field.Order, field.Order + 1, 1<<64 - 2, 1<<64 - 1,
	0xffffffff00000000,
}

// checkX8 runs permuteX8 on x and compares every state with
// PermuteNaive of its canonical lanes.
func checkX8(t *testing.T, x lanesX8) {
	t.Helper()
	in := x
	permuteX8(&x)
	for k := range x[0] {
		var s State
		for i := range s {
			s[i] = field.New(in[i][k])
		}
		want := PermuteNaive(s)
		for i := range want {
			if got := field.New(x[i][k]); got != want[i] {
				t.Fatalf("backend %q, state %d lane %d: permuteX8 = %v, PermuteNaive = %v (input %v)",
					SIMD(), k, i, got, want[i], s)
			}
		}
	}
}

// TestPermuteX8MatchesNaive checks the batched permutation, on whichever
// backend this build and host select, against the naive oracle: random
// canonical and raw states, and states built from the edge values.
func TestPermuteX8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 0; n < 300; n++ {
		var x lanesX8
		for i := range x {
			for k := range x[i] {
				switch {
				case n%3 == 0:
					x[i][k] = uint64(field.New(rng.Uint64()))
				case n%3 == 1:
					x[i][k] = rng.Uint64()
				default:
					x[i][k] = x8Edges[rng.Intn(len(x8Edges))]
				}
			}
		}
		checkX8(t, x)
	}
	for _, e := range x8Edges {
		var x lanesX8
		for i := range x {
			for k := range x[i] {
				x[i][k] = e
			}
		}
		checkX8(t, x)
	}
}

// FuzzPermuteX8 checks the batched permutation against PermuteNaive on
// raw lanes: the input bytes fill the 96 lanes little-endian, cyclically.
func FuzzPermuteX8(f *testing.F) {
	for k := range x8Edges {
		var b []byte
		for i := 0; i < 8; i++ {
			b = binary.LittleEndian.AppendUint64(b, x8Edges[(i+k)%len(x8Edges)])
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var x lanesX8
		if n := len(raw) / 8; n > 0 {
			for j := 0; j < Width*8; j++ {
				x[j/8][j%8] = binary.LittleEndian.Uint64(raw[8*(j%n):])
			}
		}
		checkX8(t, x)
	})
}

// TestBatchHashesMatchScalar checks HashOrNoopBatch and TwoToOneBatch
// against the scalar hashes at lengths around the eight-hash chunk,
// including tails after whole chunks, which Merkle's power-of-two levels
// never produce, and a ragged chunk. Leaf widths and tree shapes are
// covered by merkle's TestBuildMatchesScalarReference.
func TestBatchHashesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	elems := func(n int) []field.Element {
		es := make([]field.Element, n)
		for i := range es {
			es[i] = field.New(rng.Uint64())
		}
		return es
	}
	for _, n := range []int{0, 1, 7, 8, 9, 16, 23} {
		for _, w := range []int{4, 5, 17} {
			leaves := make([][]field.Element, n)
			for i := range leaves {
				leaves[i] = elems(w)
			}
			if n == 16 {
				leaves[10] = elems(w + 1) // ragged second chunk
			}
			out := make([]HashOut, n)
			HashOrNoopBatch(leaves, out)
			for i := range leaves {
				if want := HashOrNoop(leaves[i]); out[i] != want {
					t.Fatalf("HashOrNoopBatch n=%d w=%d leaf %d: %v, want %v", n, w, i, out[i], want)
				}
			}
		}
		children := make([]HashOut, 2*n)
		for i := range children {
			copy(children[i][:], elems(HashOutLen))
		}
		out := make([]HashOut, n)
		TwoToOneBatch(children, out)
		for i := range out {
			if want := TwoToOne(children[2*i], children[2*i+1]); out[i] != want {
				t.Fatalf("TwoToOneBatch n=%d node %d: %v, want %v", n, i, out[i], want)
			}
		}
	}
}

func BenchmarkPermuteX8(b *testing.B) {
	var x lanesX8
	for i := range x {
		for k := range x[i] {
			x[i][k] = uint64(field.New(uint64(i*8+k) * 0x9e37_79b9_7f4a_7c15))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		permuteX8(&x)
	}
}

// checkHashColumnsBatch hashes leaves lo..hi-1 of width random columns
// of length hi with HashColumnsBatch, and requires the digests
// HashOrNoopBatch gives the transposed rows.
func checkHashColumnsBatch(t *testing.T, rng *rand.Rand, width, lo, hi int) {
	t.Helper()
	cols := make([][]field.Element, width)
	for i := range cols {
		cols[i] = make([]field.Element, hi)
		for j := range cols[i] {
			cols[i][j] = field.New(rng.Uint64())
		}
	}
	rows := make([][]field.Element, hi-lo)
	for j := range rows {
		rows[j] = make([]field.Element, width)
		for i, c := range cols {
			rows[j][i] = c[lo+j]
		}
	}
	want := make([]HashOut, len(rows))
	HashOrNoopBatch(rows, want)
	got := make([]HashOut, len(rows))
	HashColumnsBatch(cols, lo, hi, got)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("width=%d leaves [%d,%d): leaf %d = %v, want %v", width, lo, hi, lo+j, got[j], want[j])
		}
	}
}

// TestHashColumnsBatch covers every no-op width (0 to 4), one to two
// sponge blocks and a partial last block (5 to 17), plonk's wires width
// 48, and leaf counts 1 to 33, so every tail after zero to four whole
// chunks occurs, from a zero and a ragged first leaf.
func TestHashColumnsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, width := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 48} {
		for n := 1; n <= 33; n++ {
			for _, lo := range []int{0, 3} {
				checkHashColumnsBatch(t, rng, width, lo, lo+n)
			}
		}
	}
}

// FuzzHashColumnsBatch is TestHashColumnsBatch on random widths up to
// 64, leaf counts up to 80 and first leaves up to 15.
func FuzzHashColumnsBatch(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(8), uint8(0))
	f.Add(int64(2), uint8(48), uint8(33), uint8(7))
	f.Add(int64(3), uint8(3), uint8(17), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, width, n, lo uint8) {
		l := int(lo) % 16
		checkHashColumnsBatch(t, rand.New(rand.NewSource(seed)), int(width)%65, l, l+int(n)%81)
	})
}
