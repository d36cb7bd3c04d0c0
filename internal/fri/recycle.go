package fri

import (
	"sync"

	"unizk/internal/field"
)

// Buffer recycling for the proving pipeline. A proving server runs the
// same circuit shapes proof after proof, so the large per-proof vectors
// — per-polynomial LDE columns, fold-layer leaf arenas, combine/fold
// scratch — cycle through sync.Pools instead of being remade. Checkout
// is capacity-checked, contents are unspecified (every user overwrites
// or explicitly clears its buffer), and a buffer re-enters a pool only
// when its owner can prove nothing escaping into a Proof still
// references it: opened query rows and fold pairs are copied out of the
// LDE columns and fold arenas before release, and final-polynomial
// coefficients live in a fresh slice.

var (
	basePool = sync.Pool{New: func() any { s := make([]field.Element, 0, 1<<12); return &s }}
	extPool  = sync.Pool{New: func() any { s := make([]field.Ext, 0, 1<<12); return &s }}
)

// getBase returns a pooled base-field buffer of exactly n elements,
// contents unspecified.
func getBase(n int) *[]field.Element {
	p := basePool.Get().(*[]field.Element)
	if cap(*p) < n {
		*p = make([]field.Element, n)
	}
	*p = (*p)[:n]
	return p
}

func putBase(p *[]field.Element) { basePool.Put(p) }

// getExt is getBase for extension-field buffers.
func getExt(n int) *[]field.Ext {
	p := extPool.Get().(*[]field.Ext)
	if cap(*p) < n {
		*p = make([]field.Ext, n)
	}
	*p = (*p)[:n]
	return p
}

func putExt(p *[]field.Ext) { extPool.Put(p) }
