package fri

import (
	"unizk/internal/field"
	"unizk/internal/parallel"
)

// Buffer recycling for the proving pipeline. A proving server runs the
// same circuit shapes proof after proof, so the large per-proof vectors
// — per-polynomial LDE columns, fold-layer leaf arenas, combine/fold
// scratch — cycle through pools instead of being remade. Checkout
// is capacity-checked, contents are unspecified (every user overwrites
// or explicitly clears its buffer), and a buffer re-enters a pool only
// when its owner can prove nothing escaping into a Proof still
// references it: opened query rows and fold pairs are copied out of the
// LDE columns and fold arenas before release, and final-polynomial
// coefficients live in a fresh slice.

var (
	baseBufs parallel.Scratch[field.Element]
	extBufs  parallel.Scratch[field.Ext]
)
