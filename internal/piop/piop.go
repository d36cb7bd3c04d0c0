// Package piop drives the polynomial IOP that plonk and stark share (paper
// Fig. 7): commit one oracle per round and draw its challenges, commit the
// quotient, draw ζ, open the declared (oracle, rotation) pairs, then FRI.
// A proof system states its rounds once, in an IOP, which Prove walks for
// the prover and Replay for the verifier.
package piop

import (
	"context"
	"fmt"
	"slices"

	"unizk/internal/constraint"
	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/poseidon"
	"unizk/internal/prooferr"
	"unizk/internal/trace"
)

// Round is one per-proof commitment before the quotient: Width
// polynomials, then Challenges base-field challenges drawn after its cap.
type Round struct{ Width, Challenges int }

// Opening is every polynomial of one oracle opened at g^Rotation·ζ, g the
// trace domain's generator.
type Opening struct{ Oracle, Rotation int }

// IOP is a proof system's round declaration. Oracles are numbered in
// commitment order: the preprocessed ones, one per round, then the
// quotient's constraint.QuotientChunks chunks, after whose cap ζ is drawn.
type IOP struct {
	LogN int
	Cfg  fri.Config
	// Preprocessed are the widths of the oracles committed before any
	// proof (plonk's constants), whose caps the system's seed observes.
	Preprocessed []int
	Rounds       []Round
	// Openings are observed in this order. FRI opens them grouped by
	// rotation, the groups in order of first appearance.
	Openings []Opening
	// Invalid is the system's umbrella error, which every rejection the
	// driver returns wraps.
	Invalid error
}

// Prover is the prover's side of a declaration.
type Prover struct {
	// Preprocessed are the preprocessed oracles, which are never released.
	Preprocessed []*fri.PolynomialBatch
	// Round returns the columns round i commits, as evaluations over the
	// trace domain, given every challenge drawn before it.
	Round func(ctx context.Context, i int, challenges []field.Element) ([][]field.Element, error)
	// Quotient returns the quotient's coefficient chunks, given the
	// oracles committed so far in oracle order and every challenge.
	Quotient func(ctx context.Context, oracles []*fri.PolynomialBatch, challenges []field.Element) ([][]field.Element, error)
}

// Prove walks the declaration on a transcript seeded with the system's
// public data and returns the proof's caps (one per round, the
// quotient's last), its opened values (one vector per declared opening)
// and the FRI proof. The batches it commits are dead once those are
// copied out, so it releases them (pooled LDE columns and digest levels)
// on every return path.
func (d *IOP) Prove(ctx context.Context, ch *poseidon.Challenger, p Prover,
	rec *trace.Recorder) (caps []merkle.Cap, openings [][]field.Ext, proof *fri.Proof, err error) {

	oracles, cs, err := d.Commit(ctx, ch, p, rec)
	defer func() {
		for _, b := range oracles[len(p.Preprocessed):] {
			b.Release()
		}
	}()
	if err != nil {
		return nil, nil, nil, err
	}
	chunks, err := p.Quotient(ctx, oracles, cs)
	if err != nil {
		return nil, nil, nil, err
	}
	quot, err := fri.CommitCoeffs(ctx, chunks, d.Cfg.RateBits, d.Cfg.CapHeight, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	oracles = append(oracles, quot)
	for _, b := range oracles[len(p.Preprocessed):] {
		caps = append(caps, b.Cap())
	}
	ch.ObserveCap(caps[len(caps)-1])
	zeta := ch.SampleExt()
	for _, o := range d.Openings {
		v, err := oracles[o.Oracle].EvalAll(ctx, d.point(zeta, o.Rotation), rec)
		if err != nil {
			return nil, nil, nil, err
		}
		openings = append(openings, v)
	}
	ch.ObserveExts(openings...)
	groups, opened := d.groups(zeta, openings)
	proof, err = fri.Prove(ctx, oracles, groups, opened, ch, d.Cfg, rec)
	return caps, openings, proof, err
}

// Commit commits the rounds before the quotient, observing each cap and
// drawing its challenges, and returns the oracles in oracle order with
// the challenges; on error, the oracles committed before it. It releases
// nothing, so a quotient can be timed on its output apart from the prover.
func (d *IOP) Commit(ctx context.Context, ch *poseidon.Challenger, p Prover,
	rec *trace.Recorder) (oracles []*fri.PolynomialBatch, cs []field.Element, err error) {

	oracles = slices.Clone(p.Preprocessed)
	for i, r := range d.Rounds {
		cols, err := p.Round(ctx, i, cs)
		if err != nil {
			return oracles, nil, err
		}
		b, err := fri.CommitValues(ctx, cols, d.Cfg.RateBits, d.Cfg.CapHeight, rec)
		if err != nil {
			return oracles, nil, err
		}
		oracles = append(oracles, b)
		ch.ObserveCap(b.Cap())
		for range r.Challenges {
			cs = append(cs, ch.Sample())
		}
	}
	return oracles, cs, nil
}

// Replay is a transcript replayed through the openings: the challenges
// and ζ, and fri.Verify's arguments.
type Replay struct {
	Challenges []field.Element
	Zeta       field.Ext
	// Challenger is the transcript after the openings, where FRI starts.
	Challenger *poseidon.Challenger
	Oracles    []fri.VerifierOracle
	Groups     []fri.PointGroup
	Opened     fri.OpenedValues

	iop *IOP
}

// Replay checks every cap's size (caps in oracle order) and every
// opening's length against the declaration, replays the transcript on ch,
// seeded as the prover's was, and rejects a ζ on the trace domain, where
// a check at ζ would divide by zero.
func (d *IOP) Replay(ch *poseidon.Challenger, caps []merkle.Cap, openings [][]field.Ext) (*Replay, error) {
	widths := slices.Clone(d.Preprocessed)
	for _, r := range d.Rounds {
		widths = append(widths, r.Width)
	}
	widths = append(widths, constraint.QuotientChunks)
	r := &Replay{Challenger: ch, iop: d}
	capSize := fri.CapSize(d.Cfg, d.LogN+d.Cfg.RateBits)
	for i, c := range caps {
		if len(c) != capSize {
			return nil, fmt.Errorf("%w: %w: oracle %d cap has %d digests, want %d",
				d.Invalid, prooferr.ErrMalformedProof, i, len(c), capSize)
		}
		r.Oracles = append(r.Oracles, fri.VerifierOracle{Cap: c, NumPolys: widths[i]})
	}
	for k, o := range d.Openings {
		if len(openings[k]) != widths[o.Oracle] {
			return nil, fmt.Errorf("%w: %w: oracle %d opened at rotation %d has %d values, want %d",
				d.Invalid, prooferr.ErrMalformedProof, o.Oracle, o.Rotation, len(openings[k]), widths[o.Oracle])
		}
	}

	for i, c := range caps[len(d.Preprocessed):] {
		ch.ObserveCap(c)
		if i < len(d.Rounds) {
			for range d.Rounds[i].Challenges {
				r.Challenges = append(r.Challenges, ch.Sample())
			}
		}
	}
	r.Zeta = ch.SampleExt()
	ch.ObserveExts(openings...)
	if field.ExtSub(field.ExtExp(r.Zeta, 1<<d.LogN), field.ExtOne).IsZero() {
		return nil, fmt.Errorf("%w: %w: ζ lies on the trace domain", d.Invalid, prooferr.ErrProofRejected)
	}
	r.Groups, r.Opened = d.groups(r.Zeta, openings)
	return r, nil
}

// Verify runs the system's check at ζ, returning its error as it is, then
// checks the FRI opening proof of the replayed openings.
func (r *Replay) Verify(proof *fri.Proof, check func(challenges []field.Element, zeta field.Ext) error) error {
	if err := check(r.Challenges, r.Zeta); err != nil {
		return err
	}
	if err := fri.Verify(r.Oracles, r.Groups, r.Opened, proof, r.Challenger, r.iop.Cfg, r.iop.LogN); err != nil {
		// %w preserves the fri error's taxonomy class (shape vs. crypto).
		return fmt.Errorf("%w: %w", r.iop.Invalid, err)
	}
	return nil
}

// point is g^rotation·ζ.
func (d *IOP) point(zeta field.Ext, rotation int) field.Ext {
	return field.ExtScalarMul(field.Exp(field.PrimitiveRootOfUnity(d.LogN), uint64(rotation)), zeta)
}

// groups sorts the openings into FRI point groups: one per rotation, in
// order of first appearance, each with its oracles in declaration order.
func (d *IOP) groups(zeta field.Ext, openings [][]field.Ext) ([]fri.PointGroup, fri.OpenedValues) {
	var rotations []int
	var groups []fri.PointGroup
	var opened fri.OpenedValues
	for k, o := range d.Openings {
		gi := slices.Index(rotations, o.Rotation)
		if gi < 0 {
			gi = len(groups)
			rotations = append(rotations, o.Rotation)
			groups = append(groups, fri.PointGroup{Point: d.point(zeta, o.Rotation)})
			opened = append(opened, nil)
		}
		groups[gi].Oracles = append(groups[gi].Oracles, o.Oracle)
		opened[gi] = append(opened[gi], openings[k])
	}
	return groups, opened
}
