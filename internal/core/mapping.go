package core

import (
	"unizk/internal/dram"
	"unizk/internal/trace"
)

// kernelCost is the phase simulator's view of one kernel node after
// applying the §5 mapping strategies: how many cycles the VSAs need, how
// many ideal PE-occupancy cycles that represents (for utilization), and
// what DRAM traffic the mapping generates.
type kernelCost struct {
	computeCycles int64
	peOps         float64 // PE-occupancy cycles (≤ totalPEs × computeCycles)
	memBytes      int64
	pattern       dram.Pattern
	fixedOverhead int64 // pipeline fill / reconfiguration
}

// Constants of the Poseidon mapping (§5.2): PE-occupancy cycles for one
// permutation. A full round maps to a 12×8 region at one state per cycle
// (96 PE-cycles each); the pre-partial round uses the whole 12×12 array
// (144); each partial round uses a 12×3 region (36).
const (
	fullRoundPECycles    = 96
	prePartialPECycles   = 144
	partialRoundPECycles = 36
	permPECycles         = 8*fullRoundPECycles + prePartialPECycles +
		22*partialRoundPECycles // = 1704
	// hashPackingOverhead accounts for region reconfiguration and the
	// 145-cycle partial-round pipeline latency (§5.2), observed as the
	// few percent of VSA idle time in Table 4.
	hashPackingOverhead = 1.04
)

// elementBytes is the Goldilocks element size.
const elementBytes = 8

// mapNode translates one trace node into costs for the configuration.
func mapNode(n trace.Node, cfg Config) kernelCost {
	switch n.Kind {
	case trace.NTT:
		return mapNTT(n, cfg)
	case trace.Hash:
		return mapHash(n, cfg)
	case trace.MerkleTree:
		return mapMerkle(n, cfg)
	case trace.VecOp:
		return mapVecOp(n, cfg)
	case trace.PartialProd:
		return mapPartialProd(n, cfg)
	case trace.Transpose:
		// The global transpose buffer performs layout changes implicitly
		// while fetching data for the neighbouring kernel (§4, §7.1:
		// "this cost is eliminated in UniZK"). Without it, the transpose
		// is an explicit scattered read + write round trip.
		if !cfg.Ablation.NoTransposeUnit {
			return kernelCost{}
		}
		return kernelCost{
			computeCycles: 1,
			memBytes:      2 * int64(n.Size) * elementBytes,
			pattern: dram.Pattern{
				ChunkBytes:  cfg.TransposeBatch * elementBytes,
				Interleaved: true,
				MaxParallel: 4 * cfg.DRAM.Channels,
			},
			fixedOverhead: 32,
		}
	default:
		return kernelCost{}
	}
}

// mapNTT follows §5.1: a size-N transform is decomposed into
// ceil(logN / PipelineLogN) dimensions of fixed-size pipelines; each VSA
// processes two dimensions per pass (two half-arrays around the transpose
// buffer) with ArrayDim pipelines per half-array at 2 elements/cycle each.
func mapNTT(n trace.Node, cfg Config) kernelCost {
	size := int64(n.Size)
	batch := max(1, int64(n.Batch))
	total := size * batch
	logSize := ceilLog2(size)

	dims := (logSize + cfg.PipelineLogN - 1) / cfg.PipelineLogN
	if dims < 1 {
		dims = 1
	}
	passes := int64((dims + 1) / 2)

	// Per VSA: ArrayDim pipelines × 2 elements/cycle, covering up to two
	// dimensions per pass.
	elemsPerCycle := int64(2 * cfg.ArrayDim * cfg.NumVSAs)
	compute := passes * total / elemsPerCycle
	if compute < 1 {
		compute = 1
	}

	// Butterfly work: N/2·logN butterflies × (1 mul + 2 add) occupying
	// one PE each, plus inter-dimension twiddle multiplications.
	peOps := float64(total) * (0.5*float64(logSize) + float64(dims))

	// Traffic: one read + one write per pass, but intermediate passes
	// stay in the scratchpad when the working set fits half of it
	// (double buffering).
	bytes := 2 * total * elementBytes
	if total*elementBytes > cfg.ScratchpadBytes/2 {
		bytes *= passes
	}
	if cfg.Ablation.NoTwiddleGen {
		// Inter-dimension twiddles stream from DRAM instead of being
		// generated on-chip.
		bytes += total * elementBytes * int64(dims-1)
	}

	// The scratchpad tile shape bounds how long the contiguous DRAM runs
	// are when striding across decomposed dimensions: a smaller
	// scratchpad means smaller tiles and shorter runs (more row misses).
	// The transpose-buffer batch b=16 (§5.1) is the floor.
	chunk := int(cfg.ScratchpadBytes / (64 << 10) * 64)
	if min := cfg.TransposeBatch * elementBytes; chunk < min {
		chunk = min
	}
	if chunk > 4096 {
		chunk = 4096
	}
	return kernelCost{
		computeCycles: compute,
		peOps:         peOps,
		memBytes:      bytes,
		pattern: dram.Pattern{
			ChunkBytes:  chunk,
			Interleaved: true,
			// Streaming NTTs prefetch deeply through the double-buffered
			// scratchpad; the queue depth is calibrated to the ~50%
			// effective bandwidth the paper reports (Table 4).
			MaxParallel: 24 * cfg.DRAM.Channels,
		},
		fixedOverhead: int64(cfg.PipelineLogN) + 64,
	}
}

// mapHash models standalone Poseidon work (Fiat–Shamir, proof-of-work):
// on-chip state, no DRAM traffic.
func mapHash(n trace.Node, cfg Config) kernelCost {
	perms := int64(n.Size)
	return kernelCost{
		computeCycles: permCycles(perms, cfg),
		peOps:         float64(perms) * permPECyclesFor(cfg.Ablation),
		fixedOverhead: 145, // partial-round pipeline latency (§5.2)
	}
}

// mapMerkle follows §5.3: leaves are absorbed at the sponge rate, internal
// levels compress pairwise; subtrees are processed fully on-chip and nodes
// are laid out in level order for sequential traffic.
func mapMerkle(n trace.Node, cfg Config) kernelCost {
	leaves := int64(n.Size)
	width := max(1, int64(n.Batch))

	permsPerLeaf := (width + 7) / 8
	if width <= 4 {
		permsPerLeaf = 0 // HashOrNoop short leaves
	}
	perms := leaves*permsPerLeaf + leaves // leaf absorb + internal levels

	digestBytes := int64(32)
	bytes := leaves*width*elementBytes + 2*leaves*digestBytes
	// Subtrees that exceed the scratchpad force boundary digests to be
	// written out and re-read between passes.
	subtreeLeaves := cfg.ScratchpadBytes / 2 / (width*elementBytes + digestBytes)
	if subtreeLeaves < 2 {
		subtreeLeaves = 2
	}
	if leaves > subtreeLeaves {
		bytes += (leaves / subtreeLeaves) * digestBytes * 2
	}

	return kernelCost{
		computeCycles: permCycles(perms, cfg),
		peOps:         float64(perms) * permPECyclesFor(cfg.Ablation),
		memBytes:      bytes,
		pattern: dram.Pattern{ // level-order: long sequential runs
			ChunkBytes:  0,
			Interleaved: true,
			MaxParallel: 0,
		},
		fixedOverhead: 145,
	}
}

// permCycles converts a permutation count to VSA cycles: permPECycles of
// PE occupancy per permutation over the chip's PEs, with the §5.2 packing
// overhead.
func permCycles(perms int64, cfg Config) int64 {
	c := int64(hashPackingOverhead * float64(perms) * permPECyclesFor(cfg.Ablation) /
		float64(cfg.TotalPEs()))
	if c < 1 {
		c = 1
	}
	return c
}

// mapVecOp follows §5.4: vector mode runs one element slot per PE with
// chained functional units. Kernels with many operand vectors (gate
// constraint evaluation) have pseudo-random, limited-size accesses that
// underutilize bandwidth (§7.1); streaming kernels (FRI combination and
// folding) behave sequentially.
func mapVecOp(n trace.Node, cfg Config) kernelCost {
	length := int64(n.Size)
	operands := max(1, int64(n.Batch))
	ops := max(1, int64(n.Ops))

	// Two of the three functional units sustained per PE per cycle.
	opsPerCycle := int64(2 * cfg.TotalPEs())
	compute := length * ops / opsPerCycle
	if compute < 1 {
		compute = 1
	}

	// Tiling (vector tiling + LRU + pinned wire data, §5.4): when more
	// operand vectors are live than fit in half the scratchpad, extra
	// passes over the data are needed.
	const tileBytes = 64 << 10
	vecsFit := cfg.ScratchpadBytes / 2 / tileBytes
	if vecsFit < 1 {
		vecsFit = 1
	}
	passes := (operands + 1 + vecsFit - 1) / vecsFit
	if passes < 1 {
		passes = 1
	}
	bytes := (operands + 1) * length * elementBytes
	if passes > 1 {
		bytes = bytes * passes / 2 // re-reads of the spilled fraction
	}

	pattern := dram.Pattern{ChunkBytes: 0, Interleaved: true}
	if operands >= 8 {
		// Gate-evaluation-style access: pseudo-random runs whose length
		// is bounded by the circuit width — the paper's explanation for
		// why MVM's width-400 circuit utilizes bandwidth better than the
		// width-135 ones (§7.1). One index-major row is operands×8 B.
		chunk := int(operands) * elementBytes
		if chunk < 64 {
			chunk = 64
		}
		if chunk > 4096 {
			chunk = 4096
		}
		pattern = dram.Pattern{
			ChunkBytes:  chunk,
			Interleaved: true,
			// Gate evaluation issues dependent, index-driven accesses;
			// the shallow queue models the limited-size random accesses
			// of §7.1.
			MaxParallel: 8 * cfg.DRAM.Channels,
		}
	}
	return kernelCost{
		computeCycles: compute,
		peOps:         float64(length*ops) / 3, // one PE runs up to 3 chained ops
		memBytes:      bytes,
		pattern:       pattern,
		fixedOverhead: 32,
	}
}

// mapPartialProd follows §5.4 / Fig. 6: each PE accumulates 16 quotients
// into 2 chunks, then groups of 32 chunks per PE run the three-step
// local/propagate/finalize scheme, whose propagation step is a serial
// neighbour chain.
func mapPartialProd(n trace.Node, cfg Config) kernelCost {
	length := int64(n.Size)
	opsPerCycle := int64(cfg.TotalPEs())
	compute := 2 * length / opsPerCycle
	if compute < 1 {
		compute = 1
	}
	groups := length / (16 * 2 * 32)
	propagation := groups // neighbour-to-neighbour hops
	return kernelCost{
		computeCycles: compute + propagation,
		peOps:         2 * float64(length),
		memBytes:      2 * length * elementBytes,
		pattern:       dram.Pattern{Interleaved: true},
		fixedOverhead: 32,
	}
}

func ceilLog2(n int64) int {
	l := 0
	for int64(1)<<l < n {
		l++
	}
	return l
}
