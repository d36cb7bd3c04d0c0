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
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
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
// verdict Verify would give, hashing each distinct input once. It walks
// the openings in index order: at the leaves it hashes each distinct
// (index, leaf) pair once, then at each path level each distinct (parent
// index, left, right) triple once, however many openings share it. Every
// opening still gets its own verdict, so one whose leaf or sibling
// differs from another's at the same node gets a hash of its own. An
// opening with a negative index, or with a path length other than the
// first non-negative opening's, is checked with Verify. A level's
// distinct inputs are hashed eight to a batched permutation call, and
// leaves wider than a digest across the shared worker pool. ok must be
// at least as long as ops. It returns the pool's error, which with no
// cancellation can only be a recovered panic.
func VerifyBatch(c Cap, ops []Opening, ok []bool) error {
	w := walks.Get().(*walk)
	_, err := w.verify(c, ops, ok)
	clear(w.rows) // drop the references to the callers' leaves
	walks.Put(w)
	return err
}

// minSIMDLanes is the smallest run of distinct inputs VerifyBatch hashes
// with the batched permutation: on the SIMD backend a level's last run of
// minSIMDLanes or more inputs is hashed as a full eight-lane call, the
// idle lanes repeating the last live one. One such call costs about three
// single-state permutations (BenchmarkPermuteX8 against BenchmarkPermute
// on the 2-core AVX-512 Xeon: 6.1 to 6.3 against 2.0µs), so three live
// lanes break about even and four come out ahead. A shorter run, and any
// run on the portable loop, where each lane costs a permutation anyway,
// is hashed one input at a time.
const minSIMDLanes = 4

// walk is VerifyBatch's scratch, recycled through walks so that a call
// makes no allocation once its buffers have grown to the batch size.
type walk struct {
	// order is the openings the walk batches, sorted by index.
	order []opRef
	// slot[k] is the distinct node order[k] reaches on the current level;
	// node[s] is the index of distinct node s, next the level being built.
	slot       []int
	node, next []int
	// rows holds the distinct leaves, kids the next level's distinct
	// (left, right) pairs, h the digests of the current level's distinct
	// nodes, each with room for the padding lanes.
	rows [][]field.Element
	kids []poseidon.HashOut
	h    []poseidon.HashOut
	// leafChunk is hashLeafChunk bound to this walk, made once so that
	// handing it to the pool does not allocate per call.
	leafChunk func(lo, hi int)
}

// opRef is an opening's index and position among VerifyBatch's ops.
type opRef struct{ index, op int }

var walks = sync.Pool{New: func() any {
	w := new(walk)
	w.leafChunk = w.hashLeafChunk
	return w
}}

// verify is VerifyBatch on w's scratch. It also returns the number of
// distinct inputs it hashed: leaves, then internal nodes.
func (w *walk) verify(c Cap, ops []Opening, ok []bool) (hashed int, err error) {
	depth := -1
	w.order = w.order[:0]
	for i := range ops {
		op := &ops[i]
		if depth < 0 && op.Index >= 0 {
			depth = len(op.Proof.Siblings)
		}
		if op.Index < 0 || len(op.Proof.Siblings) != depth {
			ok[i] = Verify(op.Leaf, op.Index, op.Proof, c) == nil
			continue
		}
		w.order = append(w.order, opRef{op.Index, i})
	}
	n := len(w.order)
	if n == 0 {
		return 0, nil
	}
	slices.SortFunc(w.order, func(a, b opRef) int { return cmp.Or(cmp.Compare(a.index, b.index), a.op-b.op) })
	padded := (n + 7) &^ 7
	w.slot = resize(w.slot, n)
	w.node, w.next = resize(w.node, n), resize(w.next, n)
	w.rows = resize(w.rows, padded)
	w.kids, w.h = resize(w.kids, 2*padded), resize(w.h, padded)

	d := w.distinctLeaves(ops)
	hashed += d
	if err := w.hashLeaves(d); err != nil {
		return hashed, err
	}
	for level := range depth {
		d = w.distinctNodes(ops, level)
		hashed += d
		w.hashNodes(d)
	}
	for k, r := range w.order {
		s := w.slot[k]
		i := w.node[s]
		ok[r.op] = i < len(c) && c[i] == w.h[s]
	}
	return hashed, nil
}

// resize returns s with length n, reallocated only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// distinctLeaves gives every opening the slot of its (index, leaf) pair,
// collecting each distinct pair's leaf in rows and index in node, and
// returns their number. Openings of one index are adjacent in order, so
// a leaf is looked for only among its index's pairs.
//
//unizklint:hotpath
func (w *walk) distinctLeaves(ops []Opening) int {
	d, run := 0, 0
	for k, r := range w.order {
		if k == 0 || r.index != w.order[k-1].index {
			run = d
		}
		leaf := ops[r.op].Leaf
		s := run
		for s < d && !slices.Equal(w.rows[s], leaf) {
			s++
		}
		if s == d {
			w.rows[d], w.node[d] = leaf, r.index
			d++
		}
		w.slot[k] = s
	}
	return d
}

// distinctNodes moves every opening one level up its path: it gives each
// the slot of its (parent index, left, right) triple on the next level,
// collecting each distinct triple's children in kids and parent index in
// node, and returns their number. Openings of one parent index are
// adjacent in order, so a pair is looked for only among its parent's.
//
//unizklint:hotpath
func (w *walk) distinctNodes(ops []Opening, level int) int {
	d, run, parent := 0, 0, -1
	for k, r := range w.order {
		s := w.slot[k]
		i := w.node[s]
		left, right := w.h[s], ops[r.op].Proof.Siblings[level]
		if i&1 == 1 {
			left, right = right, left
		}
		if i>>1 != parent {
			run, parent = d, i>>1
		}
		j := run
		for j < d && (w.kids[2*j] != left || w.kids[2*j+1] != right) {
			j++
		}
		if j == d {
			w.kids[2*d], w.kids[2*d+1], w.next[d] = left, right, parent
			d++
		}
		w.slot[k] = j
	}
	w.node, w.next = w.next, w.node
	return d
}

// lanes is the number of lanes a level of d distinct inputs is hashed
// in: d, or on the SIMD backend a last run of at least minSIMDLanes
// padded to eight.
func lanes(d int) int {
	if poseidon.SIMD() != "" && d%8 >= minSIMDLanes {
		return (d + 7) &^ 7
	}
	return d
}

// hashLeaves sets h[:d] to the digests of the d distinct leaves. Leaves
// wider than a digest cost a permutation per eight elements each, which
// is enough work per chunk of eight to spread across the pool.
func (w *walk) hashLeaves(d int) error {
	n := lanes(d)
	for j := d; j < n; j++ {
		w.rows[j] = w.rows[d-1]
	}
	if n > 8 && len(w.rows[0]) > poseidon.HashOutLen {
		return parallel.For(context.Background(), n, 8, w.leafChunk)
	}
	w.hashLeafChunk(0, n)
	return nil
}

// hashLeafChunk hashes leaves [lo, hi).
//
//unizklint:hotpath
func (w *walk) hashLeafChunk(lo, hi int) {
	poseidon.HashOrNoopBatch(w.rows[lo:hi], w.h[lo:hi])
}

// hashNodes sets h[:d] to the digests of the d distinct pairs in kids.
//
//unizklint:hotpath
func (w *walk) hashNodes(d int) {
	n := lanes(d)
	for j := d; j < n; j++ {
		w.kids[2*j], w.kids[2*j+1] = w.kids[2*d-2], w.kids[2*d-1]
	}
	poseidon.TwoToOneBatch(w.kids[:2*n], w.h[:n])
}
