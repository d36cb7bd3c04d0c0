package field

// The quadratic extension F_p[X]/(X^2 - W) with W = 7, matching Plonky2's
// soundness extension (paper §4: "Each extension field element consists of
// D elements from the base Goldilocks field ... usually a quadratic
// extension with D = 2 is employed"). Verifier challenges and polynomial
// openings live here so that soundness is not limited by the 64-bit field.

// W is the non-residue defining the extension: X^2 = W.
const W Element = 7

// Ext is an element a + b·X of the quadratic extension.
type Ext struct {
	A, B Element
}

// ExtZero and ExtOne are the additive and multiplicative identities.
var (
	ExtZero = Ext{}
	ExtOne  = Ext{A: One}
)

// FromBase embeds a base-field element into the extension.
func FromBase(a Element) Ext { return Ext{A: a} }

// NewExt builds an extension element from raw uint64 limbs.
func NewExt(a, b uint64) Ext { return Ext{New(a), New(b)} }

// IsZero reports whether e is the zero element.
func (e Ext) IsZero() bool { return e.A == 0 && e.B == 0 }

// ExtAdd returns x + y.
//
//unizklint:hotpath
func ExtAdd(x, y Ext) Ext { return Ext{Add(x.A, y.A), Add(x.B, y.B)} }

// ExtSub returns x - y.
//
//unizklint:hotpath
func ExtSub(x, y Ext) Ext { return Ext{Sub(x.A, y.A), Sub(x.B, y.B)} }

// ExtMul returns x * y:
//
//	(a + bX)(c + dX) = (ac + W·bd) + (ad + bc)X.
//
//unizklint:hotpath
func ExtMul(x, y Ext) Ext {
	ac := Mul(x.A, y.A)
	bd := Mul(x.B, y.B)
	ad := Mul(x.A, y.B)
	bc := Mul(x.B, y.A)
	return Ext{Add(ac, Mul(W, bd)), Add(ad, bc)}
}

// ExtSquare returns x^2.
//
//unizklint:hotpath
func ExtSquare(x Ext) Ext { return ExtMul(x, x) }

// ExtScalarMul returns s·x for a base-field scalar s.
//
//unizklint:hotpath
func ExtScalarMul(s Element, x Ext) Ext { return Ext{Mul(s, x.A), Mul(s, x.B)} }

// ExtInverse returns x^-1 (zero for x == 0). Using the conjugate:
//
//	(a + bX)^-1 = (a - bX) / (a^2 - W·b^2).
//
//unizklint:hotpath
func ExtInverse(x Ext) Ext {
	if x.IsZero() {
		return ExtZero
	}
	norm := Sub(Square(x.A), Mul(W, Square(x.B)))
	ninv := Inverse(norm)
	return Ext{Mul(x.A, ninv), Mul(Neg(x.B), ninv)}
}

// ExtExp returns base^exp.
//
//unizklint:hotpath
func ExtExp(base Ext, exp uint64) Ext {
	result := ExtOne
	for exp > 0 {
		if exp&1 == 1 {
			result = ExtMul(result, base)
		}
		base = ExtSquare(base)
		exp >>= 1
	}
	return result
}
