package core

import (
	"unizk/internal/field"
	"unizk/internal/ntt"
)

// Functional micro-model of the fixed-size NTT pipeline of §5.1/Fig. 4a:
// a size-n DIF transform mapped onto a linear sequence of PEs, one stage
// per PE, with the stride shuffling realized by each PE's register file
// acting as a delay buffer ("the results of 0, 1 in the first stage are
// buffered locally, and sent to the next stage along with the results of
// 2, 3 generated later"). The model executes the actual dataflow —
// element streams, per-stage delay buffers, twiddles resident in register
// files — and reports cycle counts and the peak register usage per PE,
// which the paper bounds by the fixed NTT size n.

// NTTPipeline is a pipelined size-2^logN DIF NTT mapped to logN PEs.
type NTTPipeline struct {
	logN int
	// stages[s] holds PE s's twiddle table (register file contents).
	stages [][]field.Element
	// Latency is the pipeline fill latency in cycles (Σ stage delays).
	Latency int64
	// MaxRegWords is the peak register file usage of any PE, in 64-bit
	// words (buffer + twiddles); must stay ≤ 64 (§4: 64×64-bit register
	// file per PE).
	MaxRegWords int
}

// NewNTTPipeline builds the pipeline for size 2^logN.
func NewNTTPipeline(logN int) *NTTPipeline {
	p := &NTTPipeline{logN: logN}
	n := 1 << logN
	for s := 0; s < logN; s++ {
		blockLen := n >> s // current butterfly block size 2L
		l := blockLen / 2
		w := field.PrimitiveRootOfUnity(logN - s) // order-2L root
		tw := make([]field.Element, l)
		acc := field.One
		for j := 0; j < l; j++ {
			tw[j] = acc
			acc = field.Mul(acc, w)
		}
		p.stages = append(p.stages, tw)
		p.Latency += int64(l)
		if regs := 2 * l; regs > p.MaxRegWords {
			p.MaxRegWords = regs // L delay words + L twiddle words
		}
	}
	return p
}

// Run streams the input vector through the pipeline and returns the
// transform in bit-reversed order (as NTT^NR produces) together with the
// cycle count at one element per lane-cycle (the paper's MDC pipeline
// moves two lanes per cycle; the cost model accounts for lane count).
func (p *NTTPipeline) Run(input []field.Element) ([]field.Element, int64) {
	n := 1 << p.logN
	if len(input) != n {
		panic("core: NTT pipeline input size mismatch")
	}
	stream := append([]field.Element(nil), input...)
	for s := range p.stages {
		stream = p.runStage(s, stream)
	}
	cycles := int64(n) + p.Latency
	return stream, cycles
}

// runStage executes one radix-2 single-path delay-feedback stage: during
// the first half of each 2L-element block the PE buffers inputs while
// draining the previous block's twiddled differences; during the second
// half it emits butterfly sums and refills the buffer with differences.
func (p *NTTPipeline) runStage(s int, in []field.Element) []field.Element {
	tw := p.stages[s]
	l := len(tw)
	buf := make([]field.Element, l)
	// The stage's output stream lags by L; collect n valid elements.
	out := make([]field.Element, 0, len(in))
	emit := func(x field.Element, t int) {
		if t >= l { // first L outputs are pipeline garbage
			out = append(out, x)
		}
	}
	t := 0
	step := func(x field.Element) {
		pos := t % l
		if (t/l)%2 == 0 {
			emit(buf[pos], t)
			buf[pos] = x
		} else {
			a := buf[pos]
			emit(field.Add(a, x), t)
			buf[pos] = field.Mul(field.Sub(a, x), tw[pos])
		}
		t++
	}
	for _, x := range in {
		step(x)
	}
	// Flush: L more cycles to drain the last block's differences.
	for i := 0; i < l; i++ {
		step(0)
	}
	return out
}

// HardwareDims splits a size-2^logN transform into dimensions of at most
// 2^logn each, the way the accelerator's fixed pipelines require: full
// pipeline-size dimensions first, the remainder last, so the product is
// exact.
func HardwareDims(logN, logn int) []int {
	if logn <= 0 {
		panic("core: pipeline size must be positive")
	}
	if logN == 0 {
		return []int{1}
	}
	var dims []int
	for rem := logN; rem > 0; rem -= logn {
		dims = append(dims, 1<<min(rem, logn))
	}
	return dims
}

// RunVariableNTT runs a size-2^logN forward transform the way §5.1 maps
// a variable length onto fixed size-2^pipelineLogN pipelines (SAM),
// returning natural-order output. Every fixed-size transform streams
// through an NTTPipeline, the inter-dimension twiddles come from the
// TwiddleGenerator, and every layout change goes through a b = 16
// TransposeBuffer; the result is the true transform.
func RunVariableNTT(input []field.Element, pipelineLogN int) []field.Element {
	return runDims(input, HardwareDims(ntt.Log2(len(input)), pipelineLogN))
}

// runDims transforms x as n = n1·n2 with n1 = dims[0] one pipeline and
// the size-n2 inner transforms decomposed by dims[1:]. Input index
// j1 + n1·j2, output index k2 + n2·k1:
//
//	X[k2 + n2·k1] = Σ_j1 w_n1^(j1·k1) · w_n^(j1·k2) · Σ_j2 x[j1 + n1·j2] · w_n2^(j2·k2)
func runDims(x []field.Element, dims []int) []field.Element {
	if len(dims) == 1 {
		out, _ := NewNTTPipeline(ntt.Log2(len(x))).Run(x)
		ntt.BitReversePermute(out)
		return out
	}
	n1, n2 := dims[0], len(x)/dims[0]
	tb := NewTransposeBuffer(16)
	// Row j1 of cols holds x[j1 + n1·j2] for every j2: one inner transform.
	cols := tb.Transpose(x, n2, n1)
	seeds := NewTwiddleGenerator(field.PrimitiveRootOfUnity(ntt.Log2(len(x))), 1)
	for j1 := 0; j1 < n1; j1++ {
		row := runDims(cols[j1*n2:(j1+1)*n2], dims[1:])
		tw := NewTwiddleGenerator(seeds.Next()[0], 1).Generate(n2) // w_n^(j1·k2)
		for k2, v := range row {
			cols[j1*n2+k2] = field.Mul(v, tw[k2])
		}
	}
	// Row k2 of rows holds the twiddled inner outputs for every j1: one
	// outer transform on the pipeline.
	rows := tb.Transpose(cols, n1, n2)
	for k2 := 0; k2 < n2; k2++ {
		copy(rows[k2*n1:], runDims(rows[k2*n1:(k2+1)*n1], dims[:1]))
	}
	return tb.Transpose(rows, n2, n1)
}
