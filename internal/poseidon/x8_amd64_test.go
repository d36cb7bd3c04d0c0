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
