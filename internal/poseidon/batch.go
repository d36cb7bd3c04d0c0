package poseidon

import "unizk/internal/field"

// lanesX8 is the state of eight independent permutations in
// structure-of-arrays form: x[i][k] is lane i of state k, so one row is
// one 512-bit vector. Lanes follow the lanes contract (any uint64
// congruent to the element).
type lanesX8 [Width][8]uint64

// SIMD names the vector backend behind the batched permutation, or is
// empty when the portable loop runs.
func SIMD() string {
	if field.AVX512 {
		return "avx512"
	}
	return ""
}

// permuteX8Generic is permuteX8 as eight scalar permutations: the path
// on hosts without the SIMD backend and under the purego build tag, and
// the reference the backend is tested against.
func permuteX8Generic(x *lanesX8) {
	for k := range x[0] {
		var s lanes
		for i := range s {
			s[i] = x[i][k]
		}
		permuteLanesGeneric(&s)
		for i := range s {
			x[i][k] = s[i]
		}
	}
}

// HashOrNoopBatch sets out[i] = HashOrNoop(leaves[i]) for every i. Eight
// equal-length leaves share each permutation call (the VSA's many
// concurrent leaf hashes, paper §5.3); a chunk of eight whose lengths
// differ, and the tail after the last whole chunk, are hashed one at a
// time. It panics unless len(out) == len(leaves).
//
//unizklint:hotpath
func HashOrNoopBatch(leaves [][]field.Element, out []HashOut) {
	if len(out) != len(leaves) {
		//unizklint:allow prooferrflow both lengths come from the caller's fixed arrays, never from proof bytes
		panic("poseidon: HashOrNoopBatch: len(out) != len(leaves)")
	}
	n := len(leaves) &^ 7
	for i := 0; i < n; i += 8 {
		hashOrNoopX8((*[8][]field.Element)(leaves[i:]), (*[8]HashOut)(out[i:]))
	}
	for i := n; i < len(leaves); i++ {
		out[i] = HashOrNoop(leaves[i])
	}
}

// hashOrNoopX8 is HashOrNoopBatch on one chunk of eight leaves.
//
//unizklint:hotpath
func hashOrNoopX8(rows *[8][]field.Element, out *[8]HashOut) {
	w := len(rows[0])
	ragged := false
	for _, r := range rows {
		ragged = ragged || len(r) != w
	}
	if ragged || w <= HashOutLen {
		for k, r := range rows {
			out[k] = HashOrNoop(r)
		}
		return
	}
	var x lanesX8
	for off := 0; off < w; off += Rate {
		for i := 0; i < Rate && off+i < w; i++ {
			for k, r := range rows {
				x[i][k] = uint64(r[off+i])
			}
		}
		permuteX8(&x)
	}
	squeezeX8(&x, out)
}

// HashColumnsBatch sets out[j-lo] = HashOrNoop(row j) for every j in
// [lo, hi), where row j is cols[0][j], cols[1][j], ...: the leaves of a
// Merkle tree over column-major data, hashed without gathering a row.
// Eight consecutive leaves share each permutation call, and lane i of
// their state is the contiguous run cols[off+i][k:k+8]. Widths of at most
// HashOutLen are the no-op digest, and the leaves after the last whole
// chunk are hashed one at a time; nothing allocates. out must hold hi-lo
// digests and every column at least hi elements.
//
//unizklint:hotpath
func HashColumnsBatch(cols [][]field.Element, lo, hi int, out []HashOut) {
	out = out[:hi-lo]
	w := len(cols)
	if w <= HashOutLen {
		for j := lo; j < hi; j++ {
			var h HashOut
			for i, c := range cols {
				h[i] = c[j]
			}
			out[j-lo] = h
		}
		return
	}
	n := lo + (hi-lo)&^7
	for k := lo; k < n; k += 8 {
		var x lanesX8
		for off := 0; off < w; off += Rate {
			for i := 0; i < Rate && off+i < w; i++ {
				for l, v := range (*[8]field.Element)(cols[off+i][k : k+8]) {
					x[i][l] = uint64(v)
				}
			}
			permuteX8(&x)
		}
		squeezeX8(&x, (*[8]HashOut)(out[k-lo:]))
	}
	for j := n; j < hi; j++ {
		var s lanes
		for off := 0; off < w; off += Rate {
			for i := 0; i < Rate && off+i < w; i++ {
				s[i] = uint64(cols[off+i][j])
			}
			permuteLanes(&s)
		}
		for i := range out[j-lo] {
			out[j-lo][i] = field.New(s[i])
		}
	}
}

// TwoToOneBatch sets out[i] = TwoToOne(children[2i], children[2i+1]) for
// every i, eight compressions per permutation call, the tail after the
// last whole chunk one at a time. It panics unless len(children) ==
// 2·len(out).
//
//unizklint:hotpath
func TwoToOneBatch(children []HashOut, out []HashOut) {
	if len(children) != 2*len(out) {
		//unizklint:allow prooferrflow both lengths come from the caller's fixed arrays, never from proof bytes
		panic("poseidon: TwoToOneBatch: len(children) != 2·len(out)")
	}
	n := len(out) &^ 7
	for i := 0; i < n; i += 8 {
		var x lanesX8
		for k := range 8 {
			l, r := &children[2*(i+k)], &children[2*(i+k)+1]
			for j := range HashOutLen {
				x[j][k] = uint64(l[j])
				x[HashOutLen+j][k] = uint64(r[j])
			}
		}
		permuteX8(&x)
		squeezeX8(&x, (*[8]HashOut)(out[i:]))
	}
	for i := n; i < len(out); i++ {
		out[i] = TwoToOne(children[2*i], children[2*i+1])
	}
}

// squeezeX8 writes the canonical digest of each of the eight states.
//
//unizklint:hotpath
func squeezeX8(x *lanesX8, out *[8]HashOut) {
	for k := range out {
		for j := range out[k] {
			out[k][j] = field.New(x[j][k])
		}
	}
}
