package poseidon

import (
	"context"
	"sync"
	"sync/atomic"

	"unizk/internal/field"
	"unizk/internal/parallel"
)

// Challenger implements the Fiat–Shamir transform as a duplex sponge over
// the Poseidon permutation, mirroring Plonky2. The prover and verifier
// drive identical Challenger instances with the same observations to derive
// the same challenges, removing interaction (paper §2.1). The "Get
// Challenges" node of the paper's computation graph (Fig. 7) is exactly
// this object's hash work.
type Challenger struct {
	state     State
	inputBuf  []field.Element
	outputBuf []field.Element
}

// NewChallenger returns a challenger with an all-zero initial state.
func NewChallenger() *Challenger {
	return &Challenger{}
}

// Observe absorbs one field element.
func (c *Challenger) Observe(e field.Element) {
	c.outputBuf = c.outputBuf[:0] // new inputs invalidate pending outputs
	c.inputBuf = append(c.inputBuf, e)
	if len(c.inputBuf) == Rate {
		c.duplex()
	}
}

// ObserveSlice absorbs a slice of elements.
func (c *Challenger) ObserveSlice(es []field.Element) {
	for _, e := range es {
		c.Observe(e)
	}
}

// ObserveHash absorbs a digest.
func (c *Challenger) ObserveHash(h HashOut) { c.ObserveSlice(h[:]) }

// ObserveCap absorbs digests in order, such as a Merkle cap.
func (c *Challenger) ObserveCap(hs []HashOut) {
	for _, h := range hs {
		c.ObserveHash(h)
	}
}

// ObserveExt absorbs an extension-field element.
func (c *Challenger) ObserveExt(e field.Ext) {
	c.Observe(e.A)
	c.Observe(e.B)
}

// ObserveExts absorbs extension-field elements, slice by slice.
func (c *Challenger) ObserveExts(groups ...[]field.Ext) {
	for _, g := range groups {
		for _, v := range g {
			c.ObserveExt(v)
		}
	}
}

// Sample squeezes one base-field challenge.
func (c *Challenger) Sample() field.Element {
	if len(c.inputBuf) > 0 || len(c.outputBuf) == 0 {
		c.duplex()
	}
	e := c.outputBuf[len(c.outputBuf)-1]
	c.outputBuf = c.outputBuf[:len(c.outputBuf)-1]
	return e
}

// SampleExt squeezes one extension-field challenge.
func (c *Challenger) SampleExt() field.Ext {
	a := c.Sample()
	b := c.Sample()
	return field.Ext{A: a, B: b}
}

// SampleBits squeezes an integer with the given number of low bits, used
// for FRI query indices and proof-of-work checks. bits must be in [0, 63]:
// a Goldilocks element carries fewer than 64 uniform bits, so a wider
// request is a protocol-configuration bug, caught here rather than
// silently mis-masked.
func (c *Challenger) SampleBits(bits int) uint64 {
	return c.Sample().Uint64() & bitsMask(bits)
}

func bitsMask(bits int) uint64 {
	if bits < 0 || bits > 63 {
		//unizklint:allow prooferrflow bits comes from protocol configuration constants, not from proof bytes
		panic("poseidon: SampleBits width out of range [0, 63]")
	}
	return 1<<bits - 1
}

// duplex overwrites the rate portion with pending inputs, permutes, and
// refills the output buffer.
func (c *Challenger) duplex() {
	copy(c.state[:], c.inputBuf)
	c.inputBuf = c.inputBuf[:0]
	c.state = Permute(c.state)
	c.outputBuf = append(c.outputBuf[:0], c.state[:Rate]...)
}

// Grind finds the proof-of-work witness: the smallest w such that
// Observe(w) followed by SampleBits(bits) yields 0. It leaves the
// challenger untouched; the caller observes the witness. tries is the
// serial-equivalent count w+1, whatever the search actually ran.
//
// Every candidate is one permutation of the same pre-witness state (the
// state with the pending inputs written into lanes 0..L-1) with w in
// lane L, tested on lane Rate-1 — exactly what Observe+SampleBits read,
// including L == Rate-1, where Observe itself duplexes. Candidates are
// independent, so the search scans them in blocks of grindSubBlocks
// sub-blocks across the worker pool, eight candidates per batched
// permutation (the VSA's many concurrent permutations, paper §5.2); the
// earliest sub-block with a hit decides, and within it the lowest hit,
// so the result is the serial loop's. ctx is polled between sub-blocks.
func (c *Challenger) Grind(ctx context.Context, bits int) (witness field.Element, tries int, err error) {
	g := grindPool.Get().(*grindSearch)
	defer grindPool.Put(g)
	g.lane = len(c.inputBuf)
	for i, e := range c.state {
		g.base[i] = uint64(e)
	}
	for i, e := range c.inputBuf {
		g.base[i] = uint64(e)
	}
	g.mask = bitsMask(bits)
	g.size = grindSubBlockSize(bits)
	for g.start = 0; ; g.start += grindSubBlocks * g.size {
		g.lowest.Store(grindSubBlocks)
		if err := parallel.For(ctx, grindSubBlocks, 1, g.scan); err != nil {
			return 0, 0, err
		}
		if j := g.lowest.Load(); j < grindSubBlocks {
			w := g.hits[j]
			return field.New(w), int(w) + 1, nil
		}
	}
}

// grindSubBlocks is the number of sub-blocks one parallel.For scans.
const grindSubBlocks = 32

// grindSubBlockSize is clamp(2^bits/32, 64, 4096) candidates: about 32
// sub-blocks per expected hit, and at most a few milliseconds between
// cancellation polls. It depends on bits only, never on the worker count.
func grindSubBlockSize(bits int) uint64 {
	if bits > 17 {
		return 4096
	}
	return max(uint64(1)<<bits/32, 64)
}

// grindSearch is the shared state of one Grind call. It is pooled, with
// scan bound to it once, so a grind allocates nothing in steady state.
type grindSearch struct {
	base  lanes // pre-witness state
	lane  int   // witness lane L
	mask  uint64
	start uint64 // first candidate of the current block
	size  uint64 // candidates per sub-block
	// lowest is the lowest sub-block of the current block with a hit
	// (grindSubBlocks if none yet); sub-blocks above it stop early.
	lowest atomic.Int64
	hits   [grindSubBlocks]uint64 // first hit of each sub-block, valid up to lowest
	scan   func(lo, hi int)
}

var grindPool = sync.Pool{New: func() any {
	g := new(grindSearch)
	g.scan = g.scanSubBlocks
	return g
}}

// scanSubBlocks is the parallel.For body: sub-blocks [lo, hi) of the
// current block.
func (g *grindSearch) scanSubBlocks(lo, hi int) {
	for j := lo; j < hi; j++ {
		g.scanSubBlock(int64(j))
	}
}

// scanSubBlock scans sub-block j in candidate order, eight consecutive
// candidates per batched permutation, and records its first hit (the
// lowest hit of the first batch with one), unless a lower sub-block hits
// first. Sub-blocks are at least 64 candidates, a multiple of eight.
//
//unizklint:hotpath
func (g *grindSearch) scanSubBlock(j int64) {
	w := g.start + uint64(j)*g.size
	for end := w + g.size; w < end && g.lowest.Load() > j; w += 8 {
		var x lanesX8
		for i, v := range g.base {
			x[i] = [8]uint64{v, v, v, v, v, v, v, v}
		}
		for k := range x[g.lane] {
			x[g.lane][k] = w + uint64(k)
		}
		permuteX8(&x)
		k := 0
		for k < 8 && uint64(field.New(x[Rate-1][k]))&g.mask != 0 {
			k++
		}
		if k == 8 {
			continue
		}
		g.hits[j] = w + uint64(k)
		for {
			cur := g.lowest.Load()
			if cur <= j || g.lowest.CompareAndSwap(cur, j) {
				return
			}
		}
	}
}
