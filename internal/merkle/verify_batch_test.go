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
// opening, across batch sizes that exercise the scalar tail (1-3), the
// padded tail (4-7), whole runs of eight and longer levels (8-17, 28),
// across leaf widths and cap heights, with all-valid batches, batches
// mixing every fault kind, and batches whose openings share three indices
// and half of which are faulted, serially and on the pool.
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
				dups := make([]Opening, size)
				for i := range valid {
					idx := rng.Intn(numLeaves)
					valid[i] = Opening{Leaf: leaves[idx], Index: idx, Proof: tree.Open(idx)}
					mixed[i] = valid[i]
					mutateOpening(&mixed[i], numLeaves, byte(rng.Intn(numFaults)), byte(rng.Intn(256)))
					idx = 3 * rng.Intn(3)
					dups[i] = Opening{Leaf: leaves[idx], Index: idx, Proof: tree.Open(idx)}
					if rng.Intn(2) == 0 {
						mutateOpening(&dups[i], numLeaves, byte(rng.Intn(numFaults)), byte(rng.Intn(256)))
					}
				}
				for _, workers := range []int{1, 2, 7} {
					parallel.SetWorkers(workers)
					name := fmt.Sprintf("width=%d cap=%d size=%d workers=%d",
						width, capHeight, size, workers)
					checkBatch(t, name+" valid", c, valid)
					checkBatch(t, name+" mixed", c, mixed)
					checkBatch(t, name+" dups", c, dups)
				}
			}
		}
	}
}

// TestVerifyBatchHashesEachNodeOnce counts the inputs the walk hashes on
// honest openings, as many as a stark proof's queries over the small
// LDE of a 2^5-row trace and PlonkyConfig's over a 2^14-leaf tree: it
// must hash each distinct leaf and each distinct node below the cap
// exactly once, however many paths share it.
func TestVerifyBatchHashesEachNodeOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, tc := range []struct{ logN, capHeight, queries int }{
		{6, 4, 84},
		{6, 0, 84},
		{14, 4, 28},
	} {
		n := 1 << tc.logN
		leaves := randLeaves(rng, n, 8)
		tree := Build(leaves, tc.capHeight)
		ops := make([]Opening, tc.queries)
		// distinct[l] holds the indices of the distinct nodes on level l,
		// the leaves being level 0.
		depth := tc.logN - tc.capHeight
		distinct := make([]map[int]bool, depth+1)
		for l := range distinct {
			distinct[l] = map[int]bool{}
		}
		for q := range ops {
			idx := rng.Intn(n)
			ops[q] = Opening{Leaf: leaves[idx], Index: idx, Proof: tree.Open(idx)}
			for l := range distinct {
				distinct[l][idx>>l] = true
			}
		}
		want := 0
		for _, d := range distinct {
			want += len(d)
		}
		ok := make([]bool, len(ops))
		w := walks.Get().(*walk)
		got, err := w.verify(tree.Cap(), ops, ok)
		walks.Put(w)
		if err != nil {
			t.Fatal(err)
		}
		for q := range ok {
			if !ok[q] {
				t.Fatalf("2^%d leaves: honest opening %d rejected", tc.logN, q)
			}
		}
		if got != want {
			t.Errorf("2^%d leaves, cap height %d, %d openings: walk hashed %d inputs, want %d distinct leaves and nodes (%d per path)",
				tc.logN, tc.capHeight, tc.queries, got, want, tc.queries*(depth+1))
		}
	}
}

// FuzzVerifyBatch builds openings of fixed trees, three bytes per opening,
// and compares VerifyBatch with Verify on every one. The first byte picks
// the leaf index, or from 128 up repeats an earlier opening's index, so a
// batch holds honest duplicates and, once the other two bytes (fault kind
// and argument, see mutateOpening) fault one copy, conflicting ones: the
// same index with other leaf data, or the same node with another sibling.
// Ragged paths and negative indices are fault kinds of their own.
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
	// Honest duplicates, then the same index with another leaf and the
	// same node with another sibling at its first and its top level.
	f.Add([]byte{1, 7, 0, 0, 128, 0, 0, 129, 0, 0, 128, faultLeafElement, 3, 128, faultSibling, 0, 129, faultSibling, 3, 6, 0, 0})
	// Ragged paths and negative indices among duplicates.
	f.Add([]byte{3, 4, 0, 0, 128, faultRaggedPath, 0, 128, faultRaggedPath, 1, 128, faultNegativeIndex, 0, 5, 0, 0, 130, 0, 0})
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
			if b[0] >= 128 && i > 0 {
				idx = ops[int(b[0]-128)%i].Index
				if idx < 0 || idx >= numLeaves {
					idx = int(b[0]) % numLeaves
				}
			}
			ops[i] = Opening{Leaf: fx.leaves[idx], Index: idx, Proof: fx.tree.Open(idx)}
			mutateOpening(&ops[i], numLeaves, b[1], b[2])
		}
		checkBatch(t, "fuzz", fx.cap, ops)
	})
}
