package plonk

import (
	"errors"
	"fmt"
	"slices"

	"unizk/internal/field"
	"unizk/internal/merkle"
	"unizk/internal/piop"
	"unizk/internal/prooferr"
)

// ErrInvalidProof is the umbrella error wrapped by every verification
// failure (kept for backward compatibility). ErrMalformedProof and
// ErrProofRejected refine it with the shared prooferr taxonomy:
// structural violations (abuse/corruption) vs. cryptographic rejection
// (forgery or prover bug).
var (
	ErrInvalidProof   = errors.New("plonk: invalid proof")
	ErrMalformedProof = fmt.Errorf("%w: %w", ErrInvalidProof, prooferr.ErrMalformedProof)
	ErrProofRejected  = fmt.Errorf("%w: %w", ErrInvalidProof, prooferr.ErrProofRejected)
)

// Verify checks a proof against the verification key and the expected
// public inputs. Any error wraps ErrInvalidProof plus exactly one of
// ErrMalformedProof (shape violation) or ErrProofRejected (cryptographic
// failure); a panic slipping past the structural validation is converted
// to an error at this boundary as defense in depth.
func Verify(vk VerificationKey, pub []field.Element, proof *Proof) (err error) {
	defer prooferr.CatchPanic(&err, "plonk")

	r, err := vk.Replay(pub, proof)
	if err != nil {
		return err
	}
	return r.Verify(proof.FRI, func(cs []field.Element, zeta field.Ext) error {
		for i := range pub {
			if proof.PublicInputs[i] != pub[i] {
				return fmt.Errorf("%w: public input %d mismatch", ErrProofRejected, i)
			}
		}
		return checkConstraints(vk, pub, proof, cs, zeta)
	})
}

// Replay checks what the circuit's declaration leaves out of a proof's
// shape — the proof and its FRI proof are present, and the public inputs
// have the key's count — and replays its transcript on the declaration:
// β, γ, α and ζ, and fri.Verify's arguments.
func (vk VerificationKey) Replay(pub []field.Element, proof *Proof) (*piop.Replay, error) {
	switch {
	case proof == nil || proof.FRI == nil:
		return nil, fmt.Errorf("%w: missing proof or FRI proof", ErrMalformedProof)
	case vk.prog == nil:
		return nil, fmt.Errorf("%w: verification key carries no constraint program", ErrMalformedProof)
	case len(pub) != vk.NumPublic || len(proof.PublicInputs) != vk.NumPublic:
		return nil, fmt.Errorf("%w: %d public inputs and %d in the proof, want %d",
			ErrMalformedProof, len(pub), len(proof.PublicInputs), vk.NumPublic)
	}
	return declare(vk.LogN, vk.Reps, vk.Cfg).Replay(seed(vk.ConstantsCap, pub),
		[]merkle.Cap{vk.ConstantsCap, proof.WiresCap, proof.ZCap, proof.QuotientCap},
		[][]field.Ext{proof.ConstantsOpen, proof.WiresOpen, proof.ZsOpen, proof.QuotientOpen, proof.ZsNextOpen})
}

// checkConstraints checks the constraint equation at ζ: the compiled
// program's Σ α^i·c_i(ζ)·div_i(ζ) over the openings, the public-input
// polynomial and ζ itself must equal the quotient's recombined chunks.
// cs holds β, γ and α.
func checkConstraints(vk VerificationKey, pub []field.Element, proof *Proof, cs []field.Element, zeta field.Ext) error {
	n := uint64(1) << vk.LogN
	zhZeta := field.ExtSub(field.ExtExp(zeta, n), field.ExtOne)

	// PI(ζ) = Σ_i (−pub_i)·L_i(ζ),  L_i(ζ) = w^i·Z_H(ζ) / (N·(ζ − w^i)).
	piZeta := field.ExtZero
	wPow := field.One
	g := field.PrimitiveRootOfUnity(vk.LogN)
	nInv := field.Inverse(field.New(n))
	for _, p := range pub {
		den := field.ExtSub(zeta, field.FromBase(wPow))
		li := field.ExtScalarMul(field.Mul(wPow, nInv),
			field.ExtMul(zhZeta, field.ExtInverse(den)))
		piZeta = field.ExtAdd(piZeta, field.ExtScalarMul(field.Neg(p), li))
		wPow = field.Mul(wPow, g)
	}

	l := layout{vk.Reps}
	local := slices.Concat(proof.ConstantsOpen, proof.WiresOpen, proof.ZsOpen, []field.Ext{piZeta, zeta})
	next := make([]field.Ext, l.width())
	copy(next[l.z(0):], proof.ZsNextOpen)
	sum := vk.prog.EvalExt(local, next, cs[:2], cs[2], zeta)
	if sum != vk.prog.QuotientAt(proof.QuotientOpen, zeta) {
		return fmt.Errorf("%w: constraint equation fails at ζ", ErrProofRejected)
	}
	return nil
}
