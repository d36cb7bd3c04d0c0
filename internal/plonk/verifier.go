package plonk

import (
	"errors"
	"fmt"
	"slices"

	"unizk/internal/constraint"
	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/poseidon"
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

// validateShape performs the structural validation of a decoded proof
// before any of its data is used: every collection the verifier indexes
// into must have exactly the size the verification key dictates.
func validateShape(vk VerificationKey, pub []field.Element, proof *Proof) error {
	reps := vk.Reps
	if proof == nil {
		return fmt.Errorf("%w: nil proof", ErrMalformedProof)
	}
	if proof.FRI == nil {
		return fmt.Errorf("%w: missing FRI proof", ErrMalformedProof)
	}
	if vk.prog == nil {
		return fmt.Errorf("%w: verification key carries no constraint program", ErrMalformedProof)
	}
	if len(pub) != vk.NumPublic {
		return fmt.Errorf("%w: %d public inputs, want %d",
			ErrMalformedProof, len(pub), vk.NumPublic)
	}
	if len(proof.PublicInputs) != len(pub) {
		return fmt.Errorf("%w: proof carries %d public inputs, want %d",
			ErrMalformedProof, len(proof.PublicInputs), len(pub))
	}
	capSize := fri.CapSize(vk.Cfg, vk.LogN+vk.Cfg.RateBits)
	for _, c := range []struct {
		name string
		n    int
	}{
		{"wires cap", len(proof.WiresCap)},
		{"Z cap", len(proof.ZCap)},
		{"quotient cap", len(proof.QuotientCap)},
	} {
		if c.n != capSize {
			return fmt.Errorf("%w: %s has %d digests, want %d",
				ErrMalformedProof, c.name, c.n, capSize)
		}
	}
	for _, o := range []struct {
		name string
		n    int
		want int
	}{
		{"constants openings", len(proof.ConstantsOpen), 8 * reps},
		{"wires openings", len(proof.WiresOpen), 3 * reps},
		{"Z openings", len(proof.ZsOpen), reps},
		{"next-row Z openings", len(proof.ZsNextOpen), reps},
		{"quotient openings", len(proof.QuotientOpen), constraint.QuotientChunks},
	} {
		if o.n != o.want {
			return fmt.Errorf("%w: %d %s, want %d",
				ErrMalformedProof, o.n, o.name, o.want)
		}
	}
	return nil
}

// Verify checks a proof against the verification key and the expected
// public inputs. Any error wraps ErrInvalidProof plus exactly one of
// ErrMalformedProof (shape violation) or ErrProofRejected (cryptographic
// failure); a panic slipping past the structural validation is converted
// to an error at this boundary as defense in depth.
func Verify(vk VerificationKey, pub []field.Element, proof *Proof) (err error) {
	defer prooferr.CatchPanic(&err, "plonk")

	if err := validateShape(vk, pub, proof); err != nil {
		return err
	}
	reps := vk.Reps
	for i := range pub {
		if proof.PublicInputs[i] != pub[i] {
			return fmt.Errorf("%w: public input %d mismatch", ErrProofRejected, i)
		}
	}

	ch, cs := replay(vk, pub, proof)
	if err := checkConstraints(vk, pub, proof, cs); err != nil {
		return err
	}

	// --- FRI opening proof. ---
	oracles := []fri.VerifierOracle{
		{Cap: vk.ConstantsCap, NumPolys: 8 * reps},
		{Cap: proof.WiresCap, NumPolys: 3 * reps},
		{Cap: proof.ZCap, NumPolys: reps},
		{Cap: proof.QuotientCap, NumPolys: constraint.QuotientChunks},
	}
	groups := []fri.PointGroup{
		{Point: cs.zeta, Oracles: []int{0, 1, 2, 3}},
		{Point: field.ExtScalarMul(field.PrimitiveRootOfUnity(vk.LogN), cs.zeta), Oracles: []int{2}},
	}
	opened := fri.OpenedValues{
		{proof.ConstantsOpen, proof.WiresOpen, proof.ZsOpen, proof.QuotientOpen},
		{proof.ZsNextOpen},
	}
	if err := fri.Verify(oracles, groups, opened, proof.FRI, ch, vk.Cfg, vk.LogN); err != nil {
		// %w preserves the fri error's taxonomy class (shape vs. crypto).
		return fmt.Errorf("%w: %w", ErrInvalidProof, err)
	}
	return nil
}

// challenges are the transcript's draws up to ζ.
type challenges struct {
	beta, gamma, alpha field.Element
	zeta               field.Ext
}

// replay replays the transcript through the openings and returns it with
// the challenges drawn on the way.
func replay(vk VerificationKey, pub []field.Element, proof *Proof) (*poseidon.Challenger, challenges) {
	var cs challenges
	ch := poseidon.NewChallenger()
	ch.ObserveCap(vk.ConstantsCap)
	ch.ObserveSlice(pub)
	ch.ObserveCap(proof.WiresCap)
	cs.beta = ch.Sample()
	cs.gamma = ch.Sample()
	ch.ObserveCap(proof.ZCap)
	cs.alpha = ch.Sample()
	ch.ObserveCap(proof.QuotientCap)
	cs.zeta = ch.SampleExt()
	ch.ObserveExts(proof.ConstantsOpen, proof.WiresOpen,
		proof.ZsOpen, proof.QuotientOpen, proof.ZsNextOpen)
	return ch, cs
}

// checkConstraints checks the constraint equation at ζ: the compiled
// program's Σ α^i·c_i(ζ)·div_i(ζ) over the openings, the public-input
// polynomial and ζ itself must equal the quotient's recombined chunks.
func checkConstraints(vk VerificationKey, pub []field.Element, proof *Proof, cs challenges) error {
	n := uint64(1) << vk.LogN
	zeta := cs.zeta
	zhZeta := field.ExtSub(field.ExtExp(zeta, n), field.ExtOne)
	if zhZeta.IsZero() {
		return fmt.Errorf("%w: ζ lies on the evaluation domain", ErrProofRejected)
	}

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
	sum := vk.prog.EvalExt(local, next, []field.Element{cs.beta, cs.gamma}, cs.alpha, zeta)
	if sum != vk.prog.QuotientAt(proof.QuotientOpen, zeta) {
		return fmt.Errorf("%w: constraint equation fails at ζ", ErrProofRejected)
	}
	return nil
}
