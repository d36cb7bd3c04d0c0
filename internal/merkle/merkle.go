// Package merkle implements Poseidon Merkle trees as used by FRI
// commitments (paper §5.3): leaves are vectors of field elements hashed
// with the absorb method, internal nodes compress two children with 4
// zero-padding capacity elements, and the nodes are stored in level order
// ("which ensures long sequential memory accesses" — the property UniZK's
// Merkle mapping exploits). Trees support Plonky2-style caps: the top
// capHeight levels are omitted and the commitment is the vector of 2^capHeight
// subtree roots.
package merkle

import (
	"context"
	"fmt"
	"unsafe"

	"unizk/internal/field"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/poseidon"
	"unizk/internal/prooferr"
)

// digestBufs recycles per-level digest buffers across trees: a proving
// server builds and discards trees of the same few shapes for every
// proof, so steady-state tree construction allocates nothing. Buffers
// re-enter the pool only through Tree.Release, whose caller asserts no
// outstanding references to the tree's digests.
var digestBufs parallel.Scratch[poseidon.HashOut]

// Tree is a Poseidon Merkle tree over a fixed set of leaves. It keeps
// the digests only: the leaf data stays with the caller, who opens a
// leaf by reading it from there.
type Tree struct {
	// levels[0] is the leaf digests; levels[k] has len(levels[k-1])/2
	// digests; the last level is the cap.
	levels    [][]poseidon.HashOut
	levelBufs []*[]poseidon.HashOut
	capHeight int
}

// Cap is a Merkle commitment: the digests at height capHeight from the top.
type Cap []poseidon.HashOut

// Proof is an authentication path from a leaf to the cap.
type Proof struct {
	Siblings []poseidon.HashOut
}

// hashGrain is the number of Poseidon hashes per worker chunk: a
// multiple of the eight hashes one batched permutation call computes,
// large enough that chunk claiming is noise next to the chunk's eight
// calls, small enough to load-balance mid-size levels. On the 2-core
// AVX-512 Xeon BenchmarkPermuteX8 measures 6.1 to 6.3µs per call, about
// 0.8µs per permutation, against 2.0µs for one BenchmarkPermute; the
// portable loop, about 41µs per call, costs about 5µs per permutation.
const hashGrain = 64

// Build constructs a tree over the given leaves, leaf i being the row
// leaves[i]. The number of leaves must be a power of two and at least
// 2^capHeight. Leaf hashing and each tree level are fanned across the
// shared worker pool in chunks, and each chunk hashes eight leaves or
// nodes per batched permutation: the software analogue of the paper's
// "hash computations at the same tree level are independent".
func Build(leaves [][]field.Element, capHeight int) *Tree {
	t, err := BuildContext(context.Background(), leaves, capHeight)
	parallel.Must(err)
	return t
}

// BuildContext is Build with cooperative cancellation: the pool polls the
// context between hash chunks, so a ProveContext timeout interrupts even
// a large tree mid-level. On a non-nil error the partial tree is
// discarded.
func BuildContext(ctx context.Context, leaves [][]field.Element, capHeight int) (*Tree, error) {
	return build(ctx, len(leaves), capHeight, func(lo, hi int, out []poseidon.HashOut) {
		poseidon.HashOrNoopBatch(leaves[lo:hi], out)
	})
}

// BuildColumnsContext is BuildContext over column-major data: leaf i is
// the row cols[0][i], cols[1][i], ..., hashed straight from the columns
// (poseidon.HashColumnsBatch), so no row is ever gathered. Every column
// must have the same power-of-two length, the number of leaves.
func BuildColumnsContext(ctx context.Context, cols [][]field.Element, capHeight int) (*Tree, error) {
	return build(ctx, len(cols[0]), capHeight, func(lo, hi int, out []poseidon.HashOut) {
		poseidon.HashColumnsBatch(cols, lo, hi, out)
	})
}

// build hashes n leaves with hashLeaves, which sets out to the digests of
// leaves lo..hi-1, then compresses level by level up to the cap.
func build(ctx context.Context, n, capHeight int, hashLeaves func(lo, hi int, out []poseidon.HashOut)) (*Tree, error) {
	logN := ntt.Log2(n) // panics on non-power-of-two, a programming error
	if capHeight < 0 || capHeight > logN {
		panic("merkle: cap height out of range")
	}
	t := &Tree{capHeight: capHeight}

	dp := digestBufs.Get(n)
	digests := *dp
	err := parallel.For(ctx, n, hashGrain, func(lo, hi int) {
		hashLeaves(lo, hi, digests[lo:hi])
	})
	if err != nil {
		digestBufs.Put(dp)
		return nil, err
	}
	t.levels = append(t.levels, digests)
	t.levelBufs = append(t.levelBufs, dp)

	for len(digests) > 1<<capHeight {
		np := digestBufs.Get(len(digests) / 2)
		next := *np
		prev := digests
		err := parallel.For(ctx, len(next), hashGrain, func(lo, hi int) {
			poseidon.TwoToOneBatch(prev[2*lo:2*hi], next[lo:hi])
		})
		if err != nil {
			digestBufs.Put(np)
			t.Release()
			return nil, err
		}
		t.levels = append(t.levels, next)
		t.levelBufs = append(t.levelBufs, np)
		digests = next
	}
	return t, nil
}

// ResidentBytes is the heap the tree's digest levels occupy.
func (t *Tree) ResidentBytes() int64 {
	var n int64
	for _, l := range t.levels {
		n += int64(cap(l)) * int64(unsafe.Sizeof(poseidon.HashOut{}))
	}
	return n
}

// Release returns the tree's digest levels to the shared pool. The
// caller asserts the tree is dead: no slice previously obtained from it
// may be read afterwards, except data copied out (Cap copies, and so
// do Open's sibling paths). Safe to call more than once; the zero use
// after Build is simply garbage collection as before.
func (t *Tree) Release() {
	for _, p := range t.levelBufs {
		digestBufs.Put(p)
	}
	t.levelBufs = nil
	t.levels = nil
}

// Detach moves the tree's digest levels out of the shared pool into
// arrays of exactly their size and returns the pooled buffers, for a
// tree that outlives many proofs (see fri.PolynomialBatch.Detach).
func (t *Tree) Detach() {
	for i, l := range t.levels {
		t.levels[i] = append(make([]poseidon.HashOut, 0, len(l)), l...)
	}
	for _, p := range t.levelBufs {
		digestBufs.Put(p)
	}
	t.levelBufs = nil
}

// Cap returns the tree's commitment.
func (t *Tree) Cap() Cap {
	top := t.levels[len(t.levels)-1]
	return append(Cap(nil), top...)
}

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return len(t.levels[0]) }

// Open returns the authentication path of the leaf at the given index.
func (t *Tree) Open(index int) Proof {
	if index < 0 || index >= t.NumLeaves() {
		panic("merkle: leaf index out of range")
	}
	var siblings []poseidon.HashOut
	i := index
	for _, level := range t.levels[:len(t.levels)-1] {
		siblings = append(siblings, level[i^1])
		i >>= 1
	}
	return Proof{Siblings: siblings}
}

// ErrInvalidProof is returned when an authentication path does not lead to
// the committed cap. It chains to prooferr.ErrProofRejected so servers can
// classify the failure with errors.Is.
var ErrInvalidProof = fmt.Errorf("merkle: invalid proof: %w", prooferr.ErrProofRejected)

// Verify checks that leafData at index authenticates against the cap.
//
//unizklint:hotpath
func Verify(leafData []field.Element, index int, proof Proof, c Cap) error {
	if index < 0 {
		return ErrInvalidProof
	}
	h := poseidon.HashOrNoop(leafData)
	i := index
	for _, sib := range proof.Siblings {
		if i&1 == 0 {
			h = poseidon.TwoToOne(h, sib)
		} else {
			h = poseidon.TwoToOne(sib, h)
		}
		i >>= 1
	}
	if i >= len(c) || c[i] != h {
		return ErrInvalidProof
	}
	return nil
}

// Opening is one leaf and its authentication path, as VerifyBatch takes
// them.
type Opening struct {
	Leaf  []field.Element
	Index int
	Proof Proof
}

// VerifyBatch sets ok[i] to whether ops[i] authenticates against c, the
// verdict Verify would give. The openings are split into chunks of eight
// that run across the shared worker pool, and each chunk hashes its
// leaves, then each path level, with one batched permutation call. ok
// must be at least as long as ops. It returns the pool's error, which
// with no cancellation can only be a recovered panic.
func VerifyBatch(c Cap, ops []Opening, ok []bool) error {
	return parallel.For(context.Background(), len(ops), 8, func(lo, hi int) {
		verifyChunk(c, ops[lo:hi], ok[lo:hi])
	})
}

// minSIMDLanes is the smallest chunk verifyChunk hashes with the batched
// permutation.
const minSIMDLanes = 4

// verifyChunk is VerifyBatch on at most eight openings. A chunk whose
// path lengths differ, which only a malformed proof produces, and a chunk
// of fewer than minSIMDLanes, are checked one opening at a time with
// Verify; leaves of differing widths HashOrNoopBatch itself hashes one at
// a time. On the SIMD backend a chunk of minSIMDLanes or more runs as a
// full eight-lane call, the idle lanes repeating the last live one. One
// such call costs about three single-state permutations
// (BenchmarkPermuteX8 against BenchmarkPermute on the 2-core AVX-512
// Xeon: 6.1 to 6.3 against 2.0µs), so three live lanes break about even
// and four come out ahead. On the portable loop only the live lanes run,
// since each lane costs a permutation anyway.
//
//unizklint:hotpath
func verifyChunk(c Cap, ops []Opening, ok []bool) {
	n, depth := len(ops), len(ops[0].Proof.Siblings)
	ragged := false
	for _, op := range ops[1:] {
		ragged = ragged || len(op.Proof.Siblings) != depth
	}
	if ragged || n < minSIMDLanes {
		for k, op := range ops {
			ok[k] = Verify(op.Leaf, op.Index, op.Proof, c) == nil
		}
		return
	}
	lanes := n
	if poseidon.SIMD() != "" {
		lanes = 8
	}
	var (
		rows [8][]field.Element
		h    [8]poseidon.HashOut
		idx  [8]int
		kids [16]poseidon.HashOut
	)
	for k := range lanes {
		op := &ops[min(k, n-1)]
		rows[k], idx[k] = op.Leaf, op.Index
	}
	poseidon.HashOrNoopBatch(rows[:lanes], h[:lanes])
	for level := range depth {
		for k := range lanes {
			sib := ops[min(k, n-1)].Proof.Siblings[level]
			if idx[k]&1 == 0 {
				kids[2*k], kids[2*k+1] = h[k], sib
			} else {
				kids[2*k], kids[2*k+1] = sib, h[k]
			}
			idx[k] >>= 1
		}
		poseidon.TwoToOneBatch(kids[:2*lanes], h[:lanes])
	}
	for k, op := range ops {
		ok[k] = op.Index >= 0 && idx[k] < len(c) && c[idx[k]] == h[k]
	}
}
