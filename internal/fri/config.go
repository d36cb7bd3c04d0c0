// Package fri implements the Fast Reed-Solomon IOP of Proximity used as
// the polynomial commitment scheme by both Plonky2 and Starky (paper §2.2,
// "FRI for PCS"). It provides:
//
//   - PolynomialBatch: committing a batch of polynomials by iNTT → low
//     degree extension (coset NTT^NR) → Merkle tree, exactly the three-step
//     flow of paper Fig. 1 right;
//   - batched opening proofs at arbitrary extension-field points, via a
//     random linear combination of quotients, arity-2 folding with per-layer
//     Merkle commitments, proof-of-work grinding, and a query phase;
//   - the corresponding verifier.
//
// All committed evaluation vectors are stored in bit-reversed order so
// that FRI folding pairs are adjacent — the memory-layout property the
// paper's NTT^NR variant exists to produce (§5.1, "NTT variants").
package fri

import "math"

// Config collects the FRI parameters.
type Config struct {
	// RateBits is the log2 of the blowup factor k: 3 for Plonky2's
	// default k = 8, 1 for Starky's k = 2 (paper §2.2).
	RateBits int
	// CapHeight is the Merkle cap height for all commitments.
	CapHeight int
	// NumQueries is the number of FRI query rounds.
	NumQueries int
	// ProofOfWorkBits is the grinding difficulty.
	ProofOfWorkBits int
	// FinalPolyBits stops folding once the degree bound is 2^FinalPolyBits.
	FinalPolyBits int
}

// PlonkyConfig mirrors Plonky2's standard recursion-friendly configuration
// (blowup 8, 28 queries, 16-bit grinding), the setting used for every
// paper workload. Its 28·3 + 16 = 100 bits of conjectured security are
// FRI's alone. A proof's soundness is also bounded by the PIOP: plonk
// and stark draw β, γ and α as single base-field samples, so a plonk
// circuit reaches about 47 bits at MVM 2^11's 3·2^15 permutation slots
// (ProofSecurityBits; plonk.Circuit.SecurityBits).
func PlonkyConfig() Config {
	return Config{
		RateBits:        3,
		CapHeight:       4,
		NumQueries:      28,
		ProofOfWorkBits: 16,
		FinalPolyBits:   5,
	}
}

// SecurityBits is FRI's conjectured soundness in bits: RateBits per
// query, plus the proof-of-work grind.
func (c Config) SecurityBits() int {
	return c.RateBits*c.NumQueries + c.ProofOfWorkBits
}

// ProofSecurityBits bounds the soundness of a proof that commits with c
// by the PIOP's challenges too. It is the minimum of four terms, in
// bits, with |F| ≈ 2^64:
//
//   - FRI's term, c.SecurityBits();
//   - log2(|F| / slots) for the permutation argument, whose β and γ are
//     single base-field samples (slots = 0: no permutation argument);
//   - log2(|F| / constraints) for α, one base-field sample combining
//     that many constraints;
//   - log2(|F|² / (degree·N)) for ζ, an extension-field sample checking
//     an identity of degree degree·N, N = 2^logN.
func (c Config) ProofSecurityBits(slots, constraints, degree, logN int) int {
	const logF = 64
	bits := c.SecurityBits()
	if slots > 0 {
		bits = min(bits, int(logF-math.Log2(float64(slots))))
	}
	if constraints > 1 {
		bits = min(bits, int(logF-math.Log2(float64(constraints))))
	}
	return min(bits, int(2*logF-math.Log2(float64(degree))-float64(logN)))
}

// StarkyConfig mirrors Starky's configuration: blowup factor 2 (paper
// §2.2, "the blowup factor k is set to a different value of 2") and
// correspondingly more queries for the same security target.
func StarkyConfig() Config {
	return Config{
		RateBits:        1,
		CapHeight:       4,
		NumQueries:      84,
		ProofOfWorkBits: 16,
		FinalPolyBits:   5,
	}
}

// TestConfig is a small, fast configuration for unit tests: lower
// security, same code paths.
func TestConfig() Config {
	return Config{
		RateBits:        2,
		CapHeight:       1,
		NumQueries:      8,
		ProofOfWorkBits: 4,
		FinalPolyBits:   2,
	}
}
