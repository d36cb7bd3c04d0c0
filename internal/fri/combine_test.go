package fri

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"unizk/internal/field"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
)

// refCombine is the reference for combine: the pointwise combination on
// the M LDE points, reading the committed LDE columns,
//
//	F(x_j) = Σ_g (Σ α^k·lde_k[j] − y_g) / (x_j − z_g),
//
// with one field inverse per point and group. It shares neither the
// coefficient-form reduce nor the division with the prover.
func refCombine(oracles []*PolynomialBatch, groups []PointGroup, opened OpenedValues, alpha field.Ext) []field.Ext {
	m := oracles[0].N << oracles[0].RateBits
	xs := domainPoints(ntt.Log2(m))
	f := make([]field.Ext, m)
	pow := field.ExtOne
	for gi, g := range groups {
		b := make([]field.Ext, m)
		y := field.ExtZero
		for ki, oi := range g.Oracles {
			for pi, lde := range oracles[oi].LDE {
				for j := range b {
					b[j] = field.ExtAdd(b[j], field.ExtScalarMul(lde[j], pow))
				}
				y = field.ExtAdd(y, field.ExtMul(pow, opened[gi][ki][pi]))
				pow = field.ExtMul(pow, alpha)
			}
		}
		for j := range f {
			den := field.ExtInverse(field.ExtSub(field.FromBase(xs[j]), g.Point))
			f[j] = field.ExtAdd(f[j], field.ExtMul(field.ExtSub(b[j], y), den))
		}
	}
	return f
}

// combineFixture commits three oracles of 3, 2 and 4 polynomials at the
// given rate and opens them at numGroups random points: group 0 opens all
// three, group 1 the second, group 2 the first and third.
func combineFixture(seed int64, logN, rateBits, numGroups int) ([]*PolynomialBatch, []PointGroup, OpenedValues) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << logN
	var oracles []*PolynomialBatch
	for _, k := range []int{3, 2, 4} {
		oracles = append(oracles, must(CommitValues(context.Background(), randValues(rng, k, n), rateBits, 0, nil)))
	}
	members := [][]int{{0, 1, 2}, {1}, {0, 2}}
	var groups []PointGroup
	var opened OpenedValues
	for g := 0; g < numGroups; g++ {
		z := field.Ext{A: field.New(rng.Uint64()), B: field.New(rng.Uint64())}
		groups = append(groups, PointGroup{Point: z, Oracles: members[g]})
		var vals [][]field.Ext
		for _, oi := range members[g] {
			vals = append(vals, must(oracles[oi].EvalAll(context.Background(), z, nil)))
		}
		opened = append(opened, vals)
	}
	return oracles, groups, opened
}

// TestCombineMatchesReference pins layer 0 of the coefficient-form
// combine to the pointwise reference, for rates 1–3, one to three point
// groups, and every worker count.
func TestCombineMatchesReference(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)

	alpha := field.NewExt(0x1234_5678, 0x9abc_def0)
	for rateBits := 1; rateBits <= 3; rateBits++ {
		for numGroups := 1; numGroups <= 3; numGroups++ {
			for _, logN := range []int{2, 5, 8, 11} {
				name := fmt.Sprintf("rate%d/groups%d/2^%d", rateBits, numGroups, logN)
				oracles, groups, opened := combineFixture(int64(100*rateBits+10*numGroups+logN), logN, rateBits, numGroups)
				want := refCombine(oracles, groups, opened, alpha)
				for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
					parallel.SetWorkers(workers)
					got := make([]field.Ext, len(want))
					if err := Combine(context.Background(), got, oracles, groups, opened, alpha); err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%s workers=%d: point %d = %v, want %v", name, workers, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestProveRejectsWrongOpening checks that a wrong opened value, which
// leaves a remainder in the division by (X − z), makes Prove panic with
// the message of the final-polynomial degree check.
func TestProveRejectsWrongOpening(t *testing.T) {
	f := newFixture(t, 7, 5)
	f.opened[1][0][1] = field.ExtAdd(f.opened[1][0][1], field.ExtOne)
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "combined polynomial is not low degree") {
			t.Fatalf("wrong opening: recovered %v, want the low-degree panic", r)
		}
	}()
	f.prove(nil)
}
