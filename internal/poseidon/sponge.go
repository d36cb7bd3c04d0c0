package poseidon

import "unizk/internal/field"

// HashOut is a 4-element Poseidon digest, the node type of Merkle trees
// and the commitment type of the proof systems.
type HashOut [HashOutLen]field.Element

// HashNoPad absorbs the inputs with the overwrite-mode sponge used by
// Plonky2 (rate 8, capacity 4) and returns the first 4 output elements.
// This is the leaf-hash method of the paper's Merkle construction ("we pop
// the first 8 elements of the leaf and use them as state[0:8] ... until
// the leaf is used up", §5.3).
func HashNoPad(inputs []field.Element) HashOut {
	var s State
	for len(inputs) > 0 {
		n := Rate
		if len(inputs) < n {
			n = len(inputs)
		}
		copy(s[:n], inputs[:n])
		inputs = inputs[n:]
		s = Permute(s)
	}
	var out HashOut
	copy(out[:], s[:HashOutLen])
	return out
}

// TwoToOne compresses two digests into one: the 4+4 child elements fill
// state[0:8] and the capacity stays zero ("combining 4 elements from each
// of its left and right children, and padding with 4 zeros", §5.3).
func TwoToOne(left, right HashOut) HashOut {
	var s State
	copy(s[0:HashOutLen], left[:])
	copy(s[HashOutLen:2*HashOutLen], right[:])
	s = Permute(s)
	var out HashOut
	copy(out[:], s[:HashOutLen])
	return out
}

// HashOrNoop returns the inputs themselves (zero padded) if they fit in a
// digest, otherwise their hash — Plonky2's optimization for short leaves.
func HashOrNoop(inputs []field.Element) HashOut {
	if len(inputs) <= HashOutLen {
		var out HashOut
		copy(out[:], inputs)
		return out
	}
	return HashNoPad(inputs)
}
