package field

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randExt(rng *rand.Rand) Ext {
	return Ext{canonical(rng.Uint64()), canonical(rng.Uint64())}
}

func extFromRaw(a, b uint64) Ext { return Ext{canonical(a), canonical(b)} }

func TestExtAddSubInverse(t *testing.T) {
	f := func(a, b, c, d uint64) bool {
		x, y := extFromRaw(a, b), extFromRaw(c, d)
		return ExtSub(ExtAdd(x, y), y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtMulCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		x, y, z := randExt(rng), randExt(rng), randExt(rng)
		if ExtMul(x, y) != ExtMul(y, x) {
			t.Fatal("not commutative")
		}
		if ExtMul(ExtMul(x, y), z) != ExtMul(x, ExtMul(y, z)) {
			t.Fatal("not associative")
		}
	}
}

func TestExtDistributive(t *testing.T) {
	f := func(a, b, c, d, e, g uint64) bool {
		x, y, z := extFromRaw(a, b), extFromRaw(c, d), extFromRaw(e, g)
		return ExtMul(x, ExtAdd(y, z)) == ExtAdd(ExtMul(x, y), ExtMul(x, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtInverse(t *testing.T) {
	f := func(a, b uint64) bool {
		x := extFromRaw(a, b)
		if x.IsZero() {
			return ExtInverse(x).IsZero()
		}
		return ExtMul(x, ExtInverse(x)) == ExtOne
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtXSquaredIsW(t *testing.T) {
	x := Ext{A: 0, B: 1} // the adjoined root X
	if got := ExtSquare(x); got != FromBase(W) {
		t.Fatalf("X^2 = %v, want %v", got, FromBase(W))
	}
}

func TestExtEmbeddingHomomorphism(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := canonical(a), canonical(b)
		return ExtMul(FromBase(x), FromBase(y)) == FromBase(Mul(x, y)) &&
			ExtAdd(FromBase(x), FromBase(y)) == FromBase(Add(x, y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtExp(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randExt(rng)
	acc := ExtOne
	for e := uint64(0); e < 20; e++ {
		if got := ExtExp(x, e); got != acc {
			t.Fatalf("x^%d mismatch", e)
		}
		acc = ExtMul(acc, x)
	}
}

func TestExtScalarMul(t *testing.T) {
	f := func(s, a, b uint64) bool {
		sc := canonical(s)
		x := extFromRaw(a, b)
		return ExtScalarMul(sc, x) == ExtMul(FromBase(sc), x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExtMul(b *testing.B) {
	x := NewExt(0x123456789ABCDEF, 0x31415926)
	y := NewExt(0xFEDCBA987654321, 0x27182818)
	for i := 0; i < b.N; i++ {
		x = ExtMul(x, y)
	}
	_ = x
}

func TestExtConstructorsAndNeg(t *testing.T) {
	e := NewExt(Order+3, 5) // canonicalizes
	if e.A != 3 || e.B != 5 {
		t.Fatalf("NewExt = %v", e)
	}
	if ExtAdd(e, ExtSub(ExtZero, e)) != ExtZero {
		t.Fatal("x + (0 - x) != 0")
	}
}
