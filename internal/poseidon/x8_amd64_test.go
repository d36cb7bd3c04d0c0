//go:build !purego

package poseidon

import (
	"math/rand"
	"testing"

	"unizk/internal/field"
)

// mdsEdges are raw lanes at the extremes of the MDS layer's 32-bit limbs.
var mdsEdges = []uint64{1<<64 - 1, epsilon, 0xffffffff00000000, field.Order, field.Order - 1, 0}

// TestMDSX8MatchesDense checks the kernel's MDS layer on its own against
// the dense matrix: the permutation only ever feeds it S-box outputs.
// The states are each edge in every lane, the edges at random, and
// random raw lanes.
func TestMDSX8MatchesDense(t *testing.T) {
	if !field.AVX512 {
		t.Skip("no AVX-512F")
	}
	m := MDSMatrix()
	rng := rand.New(rand.NewSource(32))
	for n := 0; n < len(mdsEdges)+200; n++ {
		var x lanesX8
		for i := range x {
			for k := range x[i] {
				switch {
				case n < len(mdsEdges):
					x[i][k] = mdsEdges[n]
				case n%2 == 0:
					x[i][k] = mdsEdges[rng.Intn(len(mdsEdges))]
				default:
					x[i][k] = rng.Uint64()
				}
			}
		}
		in := x
		mdsX8AVX512(&x)
		for k := range x[0] {
			var raw [Width]uint64
			s := make([]field.Element, Width)
			for i := range s {
				raw[i] = in[i][k]
				s[i] = field.New(raw[i])
			}
			want := m.MulVec(s)
			for i := range want {
				if got := field.New(x[i][k]); got != want[i] {
					t.Fatalf("state %d row %d: %v, want %v (input %#x)", k, i, got, want[i], raw)
				}
			}
		}
	}
}

// rawStates returns the single-state kernel's test inputs: each limb
// edge in every lane with the other lanes random, every lane at one
// edge, the edges at random, and random raw lanes.
func rawStates(rng *rand.Rand) []lanes {
	var out []lanes
	random := func() (s lanes) {
		for i := range s {
			s[i] = rng.Uint64()
		}
		return s
	}
	for i := range Width {
		for _, e := range mdsEdges {
			s := random()
			s[i] = e
			out = append(out, s)
		}
	}
	for _, e := range mdsEdges {
		var s lanes
		for i := range s {
			s[i] = e
		}
		out = append(out, s)
	}
	for n := 0; n < 400; n++ {
		s := random()
		if n%2 == 0 {
			for i := range s {
				s[i] = mdsEdges[rng.Intn(len(mdsEdges))]
			}
		}
		out = append(out, s)
	}
	return out
}

// canonical returns the field elements of raw lanes.
func canonical(raw lanes) (s State) {
	for i, v := range raw {
		s[i] = field.New(v)
	}
	return s
}

// TestMDSMatchesDense checks the single-state kernel's MDS layer on its
// own against the dense matrix.
func TestMDSMatchesDense(t *testing.T) {
	if !field.AVX512 {
		t.Skip("no AVX-512F")
	}
	m := MDSMatrix()
	for _, raw := range rawStates(rand.New(rand.NewSource(45))) {
		in := canonical(raw)
		want := m.MulVec(in[:])
		mdsAVX512(&raw)
		if got := canonical(raw); [Width]field.Element(want) != got {
			t.Fatalf("MDS of %v = %v, want %v", in, got, want)
		}
	}
}

// TestPermuteAVX512MatchesNaive checks the single-state kernel against
// PermuteNaive on raw, possibly non-canonical, lanes.
func TestPermuteAVX512MatchesNaive(t *testing.T) {
	if !field.AVX512 {
		t.Skip("no AVX-512F")
	}
	for _, raw := range rawStates(rand.New(rand.NewSource(46))) {
		in := canonical(raw)
		want := PermuteNaive(in)
		permuteAVX512(&raw)
		if got := canonical(raw); got != want {
			t.Fatalf("permuteAVX512(%v) = %v, want %v", in, got, want)
		}
	}
}
