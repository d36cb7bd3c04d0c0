package piop_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"unizk/internal/constraint"
	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/piop"
	"unizk/internal/poseidon"
	"unizk/internal/prooferr"
)

var errToy = errors.New("toy: invalid proof")

// toy is a declaration with no constraints: a preprocessed oracle of two
// polynomials, a round of three with two challenges after its cap, and the
// quotient, opened at three rotations in an order that interleaves them.
// Its "quotient" is any polynomial, so an honest proof verifies with a
// check at ζ that accepts everything, and every rejection comes from the
// driver or FRI.
type toy struct {
	d     *piop.IOP
	fixed *fri.PolynomialBatch
	round [][]field.Element
	rng   *rand.Rand
}

func newToy(t *testing.T) *toy {
	t.Helper()
	const logN = 4
	rng := rand.New(rand.NewSource(7))
	cols := func(k int) [][]field.Element {
		out := make([][]field.Element, k)
		for i := range out {
			out[i] = make([]field.Element, 1<<logN)
			for j := range out[i] {
				out[i][j] = field.New(rng.Uint64())
			}
		}
		return out
	}
	cfg := fri.TestConfig()
	fixed, err := fri.CommitValues(context.Background(), cols(2), cfg.RateBits, cfg.CapHeight, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &toy{
		d: &piop.IOP{
			LogN:         logN,
			Cfg:          cfg,
			Preprocessed: []int{2},
			Rounds:       []piop.Round{{Width: 3, Challenges: 2}},
			Openings: []piop.Opening{
				{Oracle: 1, Rotation: 1}, {Oracle: 0}, {Oracle: 2}, {Oracle: 1}, {Oracle: 0, Rotation: 2},
			},
			Invalid: errToy,
		},
		fixed: fixed,
		round: cols(3),
		rng:   rng,
	}
}

// prover is the toy's prover side; quotient, if non-nil, sees the
// oracles and challenges the driver hands the quotient.
func (ty *toy) prover(quotient func([]*fri.PolynomialBatch, []field.Element) error) piop.Prover {
	return piop.Prover{
		Preprocessed: []*fri.PolynomialBatch{ty.fixed},
		Round: func(_ context.Context, i int, cs []field.Element) ([][]field.Element, error) {
			if i != 0 || len(cs) != 0 {
				return nil, errors.New("toy: unexpected round")
			}
			return ty.round, nil
		},
		Quotient: func(_ context.Context, oracles []*fri.PolynomialBatch, cs []field.Element) ([][]field.Element, error) {
			if quotient != nil {
				if err := quotient(oracles, cs); err != nil {
					return nil, err
				}
			}
			n := 1 << ty.d.LogN
			chunks := make([][]field.Element, constraint.QuotientChunks)
			for i := range chunks {
				chunks[i] = make([]field.Element, n)
				for j := range chunks[i] {
					chunks[i][j] = field.New(ty.rng.Uint64())
				}
			}
			return chunks, nil
		},
	}
}

func accept([]field.Element, field.Ext) error { return nil }

// TestProveVerifyRoundTrip proves the toy and replays it: the verifier
// draws the prover's challenges, groups the openings by rotation in order
// of first appearance, and accepts; a changed opened value is rejected by
// FRI under the declaration's umbrella error.
func TestProveVerifyRoundTrip(t *testing.T) {
	ty := newToy(t)
	var proverCS []field.Element
	caps, openings, proof, err := ty.d.Prove(context.Background(), poseidon.NewChallenger(),
		ty.prover(func(oracles []*fri.PolynomialBatch, cs []field.Element) error {
			proverCS = slices.Clone(cs)
			return nil
		}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 2 || len(openings) != len(ty.d.Openings) {
		t.Fatalf("%d caps and %d openings, want 2 and %d", len(caps), len(openings), len(ty.d.Openings))
	}
	all := slices.Concat([]merkle.Cap{ty.fixed.Cap()}, caps)

	r, err := ty.d.Replay(poseidon.NewChallenger(), all, openings)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Challenges, proverCS) || len(r.Challenges) != 2 {
		t.Fatalf("verifier drew %v, prover %v", r.Challenges, proverCS)
	}
	g := field.PrimitiveRootOfUnity(ty.d.LogN)
	wantPoints := []field.Ext{field.ExtScalarMul(g, r.Zeta), r.Zeta, field.ExtScalarMul(field.Mul(g, g), r.Zeta)}
	wantOracles := [][]int{{1}, {0, 2, 1}, {0}}
	if len(r.Groups) != len(wantPoints) {
		t.Fatalf("%d point groups, want %d", len(r.Groups), len(wantPoints))
	}
	for gi, grp := range r.Groups {
		if grp.Point != wantPoints[gi] || !slices.Equal(grp.Oracles, wantOracles[gi]) {
			t.Errorf("group %d: point %v oracles %v, want %v %v", gi, grp.Point, grp.Oracles, wantPoints[gi], wantOracles[gi])
		}
	}
	if err := r.Verify(proof, accept); err != nil {
		t.Fatalf("honest proof rejected: %v", err)
	}

	openings[2] = slices.Clone(openings[2])
	openings[2][0] = field.ExtAdd(openings[2][0], field.ExtOne)
	r, err = ty.d.Replay(poseidon.NewChallenger(), all, openings)
	if err != nil {
		t.Fatal(err)
	}
	err = r.Verify(proof, accept)
	if !errors.Is(err, errToy) || !errors.Is(err, prooferr.ErrProofRejected) {
		t.Fatalf("changed opening: got %v, want a rejection wrapping the umbrella error", err)
	}
}

// TestReplayVerifyShape checks every cap size and opening length against
// the declaration, and returns the check at ζ's error as it is.
func TestReplayVerifyShape(t *testing.T) {
	ty := newToy(t)
	caps, openings, proof, err := ty.d.Prove(context.Background(), poseidon.NewChallenger(), ty.prover(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	all := slices.Concat([]merkle.Cap{ty.fixed.Cap()}, caps)
	for i := range all {
		bad := slices.Clone(all)
		bad[i] = bad[i][1:]
		if _, err := ty.d.Replay(poseidon.NewChallenger(), bad, openings); !errors.Is(err, errToy) ||
			!errors.Is(err, prooferr.ErrMalformedProof) {
			t.Errorf("short cap %d: got %v, want malformed", i, err)
		}
	}
	for k := range openings {
		bad := slices.Clone(openings)
		bad[k] = append(slices.Clone(bad[k]), field.ExtOne)
		if _, err := ty.d.Replay(poseidon.NewChallenger(), all, bad); !errors.Is(err, errToy) ||
			!errors.Is(err, prooferr.ErrMalformedProof) {
			t.Errorf("long opening %d: got %v, want malformed", k, err)
		}
	}
	r, err := ty.d.Replay(poseidon.NewChallenger(), all, openings)
	if err != nil {
		t.Fatal(err)
	}
	errCheck := errors.New("check failed")
	if err := r.Verify(proof, func([]field.Element, field.Ext) error { return errCheck }); err != errCheck {
		t.Fatalf("check at ζ: got %v, want its own error", err)
	}
}

// TestProveReleasesOnError fails the quotient after the round's commit:
// Prove must return the error and release the batch it committed, but
// not the preprocessed one.
func TestProveReleasesOnError(t *testing.T) {
	ty := newToy(t)
	errQuot := errors.New("quotient failed")
	var seen []*fri.PolynomialBatch
	_, _, _, err := ty.d.Prove(context.Background(), poseidon.NewChallenger(),
		ty.prover(func(oracles []*fri.PolynomialBatch, _ []field.Element) error {
			seen = oracles
			return errQuot
		}), nil)
	if err != errQuot {
		t.Fatalf("got %v, want the quotient's error", err)
	}
	if len(seen) != 2 || seen[0].LDE == nil || seen[1].LDE != nil {
		t.Fatalf("after the error: %d oracles, preprocessed released %v, round released %v",
			len(seen), seen[0].LDE == nil, seen[1].LDE == nil)
	}
}
