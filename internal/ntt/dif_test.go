package ntt

import (
	"math/rand"
	"testing"

	"unizk/internal/field"
)

// laneEdges are canonical values at the carry and borrow boundaries of
// the lane arithmetic.
var laneEdges = []field.Element{0, 1, 2, 0xffffffff, 1 << 32, 1<<32 + 1, 1 << 63,
	field.Element(field.Order - 2), field.Element(field.Order - 1)}

// laneVec returns n canonical elements, about a quarter of them drawn
// from laneEdges.
func laneVec(rng *rand.Rand, n int) []field.Element {
	v := make([]field.Element, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = laneEdges[rng.Intn(len(laneEdges))]
		} else {
			v[i] = field.New(rng.Uint64())
		}
	}
	return v
}

// butterfliesGeneric is the DIF butterfly one pair at a time, the
// reference for the slice kernel the transforms run.
func butterfliesGeneric(x, y, w []field.Element) {
	for j, a := range x {
		b := y[j]
		x[j] = field.Add(a, b)
		y[j] = field.Mul(field.Sub(a, b), w[j])
	}
}

// FuzzDIFButterfliesX8 runs one span of a DIF layer, half in
// {8, 16, ..., 2^12}, through field.ButterflyVec (the eight-lane kernel
// where the host has one, then the scalar tail) and through
// butterfliesGeneric, on random canonical data at a ragged base and
// span, and requires identical results.
func FuzzDIFButterfliesX8(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0), uint16(0), uint16(0))
	f.Add(int64(2), uint8(9), uint16(3), uint16(5), uint16(2047))
	f.Add(int64(3), uint8(4), uint16(13), uint16(1), uint16(130))
	f.Fuzz(func(t *testing.T, seed int64, logHalf uint8, base, j0, span uint16) {
		half := 8 << (logHalf % 10)
		lo := int(j0) % half
		hi := lo + int(span)%(half-lo+1)
		rng := rand.New(rand.NewSource(seed))
		data := laneVec(rng, int(base)%64+2*half)
		roots := laneVec(rng, half)
		b := int(base) % 64

		want := clone(data)
		butterfliesGeneric(want[b+lo:b+hi], want[b+half+lo:b+half+hi], roots[lo:hi])
		field.ButterflyVec(data[b+lo:b+hi], data[b+half+lo:b+half+hi], roots[lo:hi])
		for i := range want {
			if data[i] != want[i] {
				t.Fatalf("half=%d base=%d span [%d,%d): index %d = %#x, want %#x",
					half, b, lo, hi, i, data[i], want[i])
			}
		}
	})
}

// TestScaleKernels checks scale and scaleByTable, which take the
// eight-lane multiply where the host has one, against field.Mul at every
// length up to 40 so each tail length runs.
func TestScaleKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 40; n++ {
		data, table := laneVec(rng, n), laneVec(rng, n)
		c := laneEdges[n%len(laneEdges)]
		got := clone(data)
		scale(got, c)
		for i := range data {
			if want := field.Mul(data[i], c); got[i] != want {
				t.Fatalf("scale n=%d index %d = %#x, want %#x", n, i, got[i], want)
			}
		}
		got = clone(data)
		scaleByTable(got, table)
		for i := range data {
			if want := field.Mul(data[i], table[i]); got[i] != want {
				t.Fatalf("scaleByTable n=%d index %d = %#x, want %#x", n, i, got[i], want)
			}
		}
	}
}

// dif8Generic is the last three DIF layers one block of eight at a time,
// as three rounds of butterfliesGeneric: the reference for
// field.DIF8Vec. w is the span-8 root table; w[2] is the span-4 root.
func dif8Generic(data, w []field.Element) {
	for base := 0; base+8 <= len(data); base += 8 {
		x := data[base : base+8]
		butterfliesGeneric(x[0:4], x[4:8], w[0:4])
		for _, h := range []int{0, 4} {
			butterfliesGeneric(x[h:h+2], x[h+2:h+4], []field.Element{field.One, w[2]})
		}
		for h := 0; h < 8; h += 2 {
			butterfliesGeneric(x[h:h+1], x[h+1:h+2], []field.Element{field.One})
		}
	}
}

// checkDIF8Vec runs field.DIF8Vec and dif8Generic on the same n random
// canonical elements with the forward or inverse span-8 roots and
// requires identical results.
func checkDIF8Vec(t *testing.T, rng *rand.Rand, n int, inverse bool) {
	t.Helper()
	data := laneVec(rng, n)
	w := spanRoots(layerTable(3, inverse), 4)
	want := clone(data)
	dif8Generic(want, w)
	field.DIF8Vec(data, w)
	for i := range want {
		if data[i] != want[i] {
			t.Fatalf("n=%d inverse=%v: index %d = %#x, want %#x", n, inverse, i, data[i], want[i])
		}
	}
}

// TestDIF8Vec checks the last-three-layers kernel against the scalar
// butterflies at whole runs of 64 (64, 128, 1024), below one run (8, 56)
// and with a scalar tail after whole runs (72, 120), forward and inverse.
func TestDIF8Vec(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 8, 56, 64, 72, 120, 128, 1024} {
		for _, inverse := range []bool{false, true} {
			checkDIF8Vec(t, rng, n, inverse)
		}
	}
}

// FuzzDIF8Vec is TestDIF8Vec on random lengths: up to 160 blocks of
// eight, so every tail after zero to twenty whole runs of 64 occurs.
func FuzzDIF8Vec(f *testing.F) {
	f.Add(int64(1), uint8(8), false)
	f.Add(int64(2), uint8(9), true)
	f.Add(int64(3), uint8(128), false)
	f.Fuzz(func(t *testing.T, seed int64, blocks uint8, inverse bool) {
		checkDIF8Vec(t, rand.New(rand.NewSource(seed)), 8*(int(blocks)%161), inverse)
	})
}
