// Package trace records the kernel computation graph of a proof generation
// run. It is the software analogue of UniZK's compiler frontend (paper
// §5.5): "converting functions in standard ZKP libraries into
// specially-defined computation graphs". The provers in internal/plonk,
// internal/stark and internal/fri execute every kernel through a Recorder,
// which (a) appends a Node describing the kernel — later consumed by the
// UniZK simulator backend — and (b) accumulates per-kernel-class CPU wall
// time, which is what Table 1 and Figure 9 report for the CPU baseline.
//
// A nil *Recorder is valid everywhere and records nothing, so the provers
// can run un-instrumented at full speed.
package trace

import (
	"sync"
	"time"
)

// Kind classifies a kernel node, following the paper's breakdown
// categories (Table 1, Figure 8).
type Kind int

const (
	// NTT is a (possibly batched, coset, inverse) number theoretic
	// transform.
	NTT Kind = iota
	// Hash is standalone Poseidon permutation work: Fiat–Shamir
	// transforms and proof-of-work grinding ("Other Hash" in Table 1).
	Hash
	// MerkleTree is Merkle tree construction (leaf hashing + internal
	// levels).
	MerkleTree
	// VecOp is element-wise polynomial computation.
	VecOp
	// PartialProd is the quotient-chunk partial product of §5.4.
	PartialProd
	// Transpose is a data layout transformation.
	Transpose

	// NumKinds is the number of kernel kinds.
	NumKinds
)

// String returns the report label for the kind.
func (k Kind) String() string {
	switch k {
	case NTT:
		return "NTT"
	case Hash:
		return "OtherHash"
	case MerkleTree:
		return "MerkleTree"
	case VecOp:
		return "VecOp"
	case PartialProd:
		return "PartialProd"
	case Transpose:
		return "Transpose"
	default:
		return "Unknown"
	}
}

// Node is one kernel in the computation graph. The meaning of the generic
// fields depends on Kind:
//
//	NTT:         Size = points per transform, Batch = #polynomials,
//	             Inverse/Coset/BitRev describe the variant.
//	Hash:        Size = number of Poseidon permutations.
//	MerkleTree:  Size = number of leaves, Batch = leaf width in elements.
//	VecOp:       Size = vector length, Batch = #operand vectors read,
//	             Ops = modular mul/add operations per output element.
//	PartialProd: Size = length of the quotient vector q (§5.4).
//	Transpose:   Size = total elements moved.
type Node struct {
	Kind    Kind
	Size    int
	Batch   int
	Ops     int
	Inverse bool
	Coset   bool
	BitRev  bool
}

// Recorder accumulates kernel nodes and CPU time per kind. Methods are
// safe for concurrent use and are no-ops on a nil receiver.
type Recorder struct {
	mu      sync.Mutex
	nodes   []Node
	cpuTime [NumKinds]time.Duration
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Record appends n and runs fn, attributing its wall time to n.Kind.
func (r *Recorder) Record(n Node, fn func()) {
	if r == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	r.mu.Lock()
	r.nodes = append(r.nodes, n)
	r.cpuTime[n.Kind] += elapsed
	r.mu.Unlock()
}

// RecordTimed appends n with a pre-measured duration, for kernels whose
// node parameters are only known after execution (e.g. proof-of-work
// grinding, whose permutation count is the number of attempts).
func (r *Recorder) RecordTimed(n Node, elapsed time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nodes = append(r.nodes, n)
	r.cpuTime[n.Kind] += elapsed
	r.mu.Unlock()
}

// NTT records a batched transform of the given size.
func (r *Recorder) NTT(size, batch int, inverse, coset, bitRev bool, fn func()) {
	r.Record(Node{Kind: NTT, Size: size, Batch: batch,
		Inverse: inverse, Coset: coset, BitRev: bitRev}, fn)
}

// Merkle records a Merkle tree build.
func (r *Recorder) Merkle(leaves, leafWidth int, fn func()) {
	r.Record(Node{Kind: MerkleTree, Size: leaves, Batch: leafWidth}, fn)
}

// Hashes records count standalone Poseidon permutations.
func (r *Recorder) Hashes(count int, fn func()) {
	r.Record(Node{Kind: Hash, Size: count}, fn)
}

// VecOp records an element-wise kernel over vectors of the given length,
// reading operands input vectors and performing ops modular operations per
// output element.
func (r *Recorder) VecOp(length, operands, ops int, fn func()) {
	r.Record(Node{Kind: VecOp, Size: length, Batch: operands, Ops: ops}, fn)
}

// PartialProducts records the §5.4 quotient-chunk partial product kernel.
func (r *Recorder) PartialProducts(length int, fn func()) {
	r.Record(Node{Kind: PartialProd, Size: length}, fn)
}

// TransposeOp records a layout transformation of size elements.
func (r *Recorder) TransposeOp(size int, fn func()) {
	r.Record(Node{Kind: Transpose, Size: size}, fn)
}

// Nodes returns a copy of the recorded graph.
func (r *Recorder) Nodes() []Node {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Node(nil), r.nodes...)
}

// CPUTime returns the accumulated wall time per kind.
func (r *Recorder) CPUTime() [NumKinds]time.Duration {
	if r == nil {
		return [NumKinds]time.Duration{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cpuTime
}
