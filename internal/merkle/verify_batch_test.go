package merkle

import (
	"fmt"
	"math/rand"
	"testing"

	"unizk/internal/field"
	"unizk/internal/parallel"
	"unizk/internal/poseidon"
)

// The faults mutateOpening applies, one per kind.
const (
	faultNone = iota
	faultLeafElement
	faultSibling
	faultWrongIndex
	faultNegativeIndex
	faultIndexPastCap
	faultRaggedWidth
	faultRaggedPath
	numFaults
)

// mutateOpening applies fault kind%numFaults to op, a leaf of a tree of
// numLeaves leaves; arg picks the element, sibling or offset. The leaf
// and path are copied before they are changed.
func mutateOpening(op *Opening, numLeaves int, kind, arg byte) {
	a := int(arg)
	switch kind % numFaults {
	case faultLeafElement:
		if len(op.Leaf) > 0 {
			op.Leaf = append([]field.Element(nil), op.Leaf...)
			op.Leaf[a%len(op.Leaf)] = field.Add(op.Leaf[a%len(op.Leaf)], field.One)
		}
	case faultSibling:
		if s := op.Proof.Siblings; len(s) > 0 {
			s = append([]poseidon.HashOut(nil), s...)
			s[a%len(s)][a%poseidon.HashOutLen] = field.Add(s[a%len(s)][a%poseidon.HashOutLen], field.One)
			op.Proof.Siblings = s
		}
	case faultWrongIndex:
		op.Index = (op.Index + 1 + a) % numLeaves
	case faultNegativeIndex:
		op.Index = -1 - a
	case faultIndexPastCap:
		op.Index += numLeaves * (1 + a%4)
	case faultRaggedWidth:
		if a%2 == 0 && len(op.Leaf) > 0 {
			op.Leaf = op.Leaf[:len(op.Leaf)-1]
		} else {
			op.Leaf = append(append([]field.Element(nil), op.Leaf...), field.New(uint64(a)))
		}
	case faultRaggedPath:
		if s := op.Proof.Siblings; a%2 == 0 && len(s) > 0 {
			op.Proof.Siblings = s[:len(s)-1]
		} else {
			op.Proof.Siblings = append(append([]poseidon.HashOut(nil), s...), poseidon.HashOut{field.New(uint64(a))})
		}
	}
}

// checkBatch fails unless VerifyBatch returns, for every opening, the
// verdict merkle.Verify gives it.
func checkBatch(t *testing.T, name string, c Cap, ops []Opening) {
	t.Helper()
	ok := make([]bool, len(ops))
	if err := VerifyBatch(c, ops, ok); err != nil {
		t.Fatalf("%s: VerifyBatch: %v", name, err)
	}
	for i, op := range ops {
		if want := Verify(op.Leaf, op.Index, op.Proof, c) == nil; ok[i] != want {
			t.Fatalf("%s: opening %d (index %d, width %d, path %d): batch says %v, Verify says %v",
				name, i, op.Index, len(op.Leaf), len(op.Proof.Siblings), ok[i], want)
		}
	}
}

// TestVerifyBatchMatchesVerify compares VerifyBatch with Verify on every
// opening, across batch sizes that exercise the scalar chunk (1-3), the
// idle-lane chunk (4-7), whole chunks and a tail (8-17, 28), across leaf
// widths and cap heights, with all-valid batches and batches mixing every
// fault kind, serially and on the pool.
func TestVerifyBatchMatchesVerify(t *testing.T) {
	prevWorkers := parallel.Workers()
	defer parallel.SetWorkers(prevWorkers)

	const numLeaves = 64
	rng := rand.New(rand.NewSource(23))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 28}
	for _, width := range []int{1, 4, 5, 32, 135} {
		for capHeight := 0; capHeight <= 4; capHeight++ {
			leaves := randLeaves(rng, numLeaves, width)
			tree := Build(leaves, capHeight)
			c := tree.Cap()
			for _, size := range sizes {
				valid := make([]Opening, size)
				mixed := make([]Opening, size)
				for i := range valid {
					idx := rng.Intn(numLeaves)
					valid[i] = Opening{Leaf: leaves[idx], Index: idx, Proof: tree.Open(idx)}
					mixed[i] = valid[i]
					mutateOpening(&mixed[i], numLeaves, byte(rng.Intn(numFaults)), byte(rng.Intn(256)))
				}
				for _, workers := range []int{1, 2, 7} {
					parallel.SetWorkers(workers)
					name := fmt.Sprintf("width=%d cap=%d size=%d workers=%d",
						width, capHeight, size, workers)
					checkBatch(t, name+" valid", c, valid)
					checkBatch(t, name+" mixed", c, mixed)
				}
			}
		}
	}
}

// FuzzVerifyBatch mutates openings of fixed trees, three bytes per
// opening (index, fault kind, fault argument), and compares VerifyBatch
// with Verify on every one.
func FuzzVerifyBatch(f *testing.F) {
	const numLeaves = 32
	rng := rand.New(rand.NewSource(24))
	type fixture struct {
		leaves [][]field.Element
		tree   *Tree
		cap    Cap
	}
	var fixtures []fixture
	for i, width := range []int{1, 5, 32, 135} {
		leaves := randLeaves(rng, numLeaves, width)
		tree := Build(leaves, i)
		fixtures = append(fixtures, fixture{leaves, tree, tree.Cap()})
	}
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0})
	f.Add([]byte{2, 5, 6, 7, 9, 1, 3, 31, 7, 2, 30, 0, 0, 4, 5, 5, 8, 3, 200, 1, 1, 4})
	f.Add(make([]byte, 1+3*28))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		fx := fixtures[int(raw[0])%len(fixtures)]
		raw = raw[1:]
		ops := make([]Opening, min(len(raw)/3, 40))
		for i := range ops {
			b := raw[3*i : 3*i+3]
			idx := int(b[0]) % numLeaves
			ops[i] = Opening{Leaf: fx.leaves[idx], Index: idx, Proof: fx.tree.Open(idx)}
			mutateOpening(&ops[i], numLeaves, b[1], b[2])
		}
		checkBatch(t, "fuzz", fx.cap, ops)
	})
}
