package field

import (
	"math/rand"
	"os"
	"strings"
	"testing"
)

// vecEdges are canonical lanes at the carry, borrow and reduction
// boundaries of the eight-lane kernels.
var vecEdges = []Element{0, 1, Element(Order - 1), 1<<32 - 1, 1 << 32, Element(Order - 1<<32)}

// vecOf returns n canonical elements, about half of them edges.
func vecOf(rng *rand.Rand, n int) []Element {
	v := make([]Element, n)
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = vecEdges[rng.Intn(len(vecEdges))]
		} else {
			v[i] = New(rng.Uint64())
		}
	}
	return v
}

// FuzzVec runs every slice kernel on vectors of length 0 to 19, so each
// eight-lane tail length occurs, against the scalar op element by
// element. alias picks the destination: a fresh vector, or the first,
// second or third operand (the kernels that read dst always alias it).
func FuzzVec(f *testing.F) {
	for n := range 20 {
		for alias := range 4 {
			f.Add(int64(n), uint8(n), uint8(alias))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, length, alias uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(length) % 20
		a, b, c, d := vecOf(rng, n), vecOf(rng, n), vecOf(rng, n), vecOf(rng, n)
		s := vecEdges[rng.Intn(len(vecEdges))]
		if rng.Intn(2) == 0 {
			s = New(rng.Uint64())
		}
		// run copies the operands, points dst at the aliased one, runs
		// kernel, and checks dst against op on the original operands.
		run := func(name string, kernel func(dst, a, b, c []Element), op func(i int) Element) {
			t.Helper()
			ops := [][]Element{append([]Element(nil), a...), append([]Element(nil), b...), append([]Element(nil), c...)}
			dst := append([]Element(nil), d...)
			if k := int(alias) % 4; k > 0 {
				dst = ops[k-1]
			}
			kernel(dst, ops[0], ops[1], ops[2])
			for i := range dst {
				if want := op(i); dst[i] != want {
					t.Fatalf("%s n=%d alias=%d: index %d = %#x, want %#x", name, n, alias%4, i, dst[i], want)
				}
			}
		}
		run("AddVec", func(dst, a, b, _ []Element) { AddVec(dst, a, b) },
			func(i int) Element { return Add(a[i], b[i]) })
		run("SubVec", func(dst, a, b, _ []Element) { SubVec(dst, a, b) },
			func(i int) Element { return Sub(a[i], b[i]) })
		run("MulVec", func(dst, a, b, _ []Element) { MulVec(dst, a, b) },
			func(i int) Element { return Mul(a[i], b[i]) })
		run("MulAddVec", MulAddVec,
			func(i int) Element { return MulAdd(a[i], b[i], c[i]) })
		run("ScaleVec", func(dst, a, _, _ []Element) { ScaleVec(dst, s, a) },
			func(i int) Element { return Mul(s, a[i]) })

		acc := append([]Element(nil), d...)
		ScaleAddVec(acc, s, a)
		x, y := append([]Element(nil), a...), append([]Element(nil), b...)
		ButterflyVec(x, y, c)
		for i := range n {
			if want := MulAdd(s, a[i], d[i]); acc[i] != want {
				t.Fatalf("ScaleAddVec n=%d: index %d = %#x, want %#x", n, i, acc[i], want)
			}
			if wx, wy := Add(a[i], b[i]), Mul(Sub(a[i], b[i]), c[i]); x[i] != wx || y[i] != wy {
				t.Fatalf("ButterflyVec n=%d: index %d = (%#x, %#x), want (%#x, %#x)", n, i, x[i], y[i], wx, wy)
			}
		}
	})
}

// TestLaneMacrosMatch fails when the lane-arithmetic block of
// vec_amd64.s drifts from the one in internal/poseidon/x8_amd64.s: the
// two copies exist only because Go's build cache does not track a
// header included from another package's directory.
func TestLaneMacrosMatch(t *testing.T) {
	block := func(path string) string {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s := string(src)
		i := strings.Index(s, "#define EPS Z31")
		j := strings.Index(s, "// END lane arithmetic.")
		if i < 0 || j < i {
			t.Fatalf("%s: lane arithmetic block not found", path)
		}
		return s[i:j]
	}
	if block("vec_amd64.s") != block("../poseidon/x8_amd64.s") {
		t.Fatal("vec_amd64.s lane arithmetic differs from internal/poseidon/x8_amd64.s")
	}
}
