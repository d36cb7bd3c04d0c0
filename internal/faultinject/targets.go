package faultinject

import (
	"fmt"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/plonk"
	"unizk/internal/stark"
	"unizk/internal/wire"
	"unizk/internal/workloads"
)

// PlonkTarget builds a small satisfied circuit, proves it once, and wraps
// the serialized proof as a fault-injection target whose Verify decodes
// and verifies against the circuit's verification key.
func PlonkTarget() (Target, error) {
	b := plonk.NewBuilder()
	x := b.AddPublicInput()
	y := b.AddPublicInput()
	out := b.AddPublicInput()
	// A short arithmetic chain so every proof component (wires, Z,
	// quotient, openings) is nontrivial.
	acc := b.Mul(x, y)
	for i := 0; i < 12; i++ {
		acc = b.Add(b.Mul(acc, x), y)
	}
	b.Connect(acc, out)

	xv, yv := field.New(3), field.New(7)
	accV := field.Mul(xv, yv)
	for i := 0; i < 12; i++ {
		accV = field.Add(field.Mul(accV, xv), yv)
	}
	pub := []field.Element{xv, yv, accV}

	c := b.Build(fri.TestConfig())
	w := c.NewWitness()
	w.Set(x, xv)
	w.Set(y, yv)
	w.Set(out, accV)
	proof, err := c.Prove(w, nil)
	if err != nil {
		return Target{}, fmt.Errorf("faultinject: plonk prove: %w", err)
	}

	var enc wire.Writer
	proof.EncodeTo(&enc)
	data := append([]byte(nil), enc.Bytes()...)
	vk := c.VerificationKey()

	return Target{
		Name:       "plonk",
		Pristine:   data,
		LenOffsets: enc.LenOffsets(),
		Verify: func(d []byte) error {
			var p plonk.Proof
			if err := p.UnmarshalBinary(d); err != nil {
				return err
			}
			return plonk.Verify(vk, pub, &p)
		},
		Structured: plonkStructured(),
	}, nil
}

// plonkStructured returns protocol-aware mutants that decode the pristine
// proof, edit one named component, and re-encode.
func plonkStructured() []Mutant {
	edit := func(desc string, f func(p *plonk.Proof)) Mutant {
		return Mutant{
			Class: "structured",
			Desc:  desc,
			Apply: func(pristine []byte) []byte {
				var p plonk.Proof
				if err := p.UnmarshalBinary(pristine); err != nil {
					panic("faultinject: pristine plonk proof failed to decode: " + err.Error())
				}
				f(&p)
				out, _ := p.MarshalBinary()
				return out
			},
		}
	}
	bump := func(e *field.Ext) { e.A = field.Add(e.A, field.One) }
	return []Mutant{
		edit("swap wires cap digests", func(p *plonk.Proof) {
			p.WiresCap[0], p.WiresCap[1] = p.WiresCap[1], p.WiresCap[0]
		}),
		edit("swap Z cap with quotient cap", func(p *plonk.Proof) {
			p.ZCap, p.QuotientCap = p.QuotientCap, p.ZCap
		}),
		edit("swap Merkle path siblings", func(p *plonk.Proof) {
			s := p.FRI.QueryRounds[0].OracleRows[0].Proof.Siblings
			s[0], s[1] = s[1], s[0]
		}),
		edit("move sibling across oracle rows", func(p *plonk.Proof) {
			r := p.FRI.QueryRounds[0].OracleRows
			r[0].Proof.Siblings[0], r[1].Proof.Siblings[0] =
				r[1].Proof.Siblings[0], r[0].Proof.Siblings[0]
		}),
		edit("swap commit-phase cap digests", func(p *plonk.Proof) {
			c := p.FRI.CommitPhaseCaps[0]
			c[0], c[1] = c[1], c[0]
		}),
		edit("swap fold-step pair", func(p *plonk.Proof) {
			pr := &p.FRI.QueryRounds[0].Steps[0].Pair
			pr[0], pr[1] = pr[1], pr[0]
		}),
		edit("swap query rounds", func(p *plonk.Proof) {
			q := p.FRI.QueryRounds
			q[0], q[1] = q[1], q[0]
		}),
		edit("swap Z openings with next-row Z openings", func(p *plonk.Proof) {
			p.ZsOpen, p.ZsNextOpen = p.ZsNextOpen, p.ZsOpen
		}),
		edit("corrupt constants opening", func(p *plonk.Proof) { bump(&p.ConstantsOpen[0]) }),
		edit("corrupt wires opening", func(p *plonk.Proof) { bump(&p.WiresOpen[0]) }),
		edit("corrupt quotient opening", func(p *plonk.Proof) { bump(&p.QuotientOpen[0]) }),
		edit("truncate wires openings", func(p *plonk.Proof) {
			p.WiresOpen = p.WiresOpen[:len(p.WiresOpen)-1]
		}),
		edit("extend Z openings", func(p *plonk.Proof) {
			p.ZsOpen = append(p.ZsOpen, field.ExtOne)
		}),
		edit("zero final polynomial", func(p *plonk.Proof) {
			for i := range p.FRI.FinalPoly {
				p.FRI.FinalPoly[i] = field.ExtZero
			}
		}),
		edit("extend final polynomial", func(p *plonk.Proof) {
			p.FRI.FinalPoly = append(p.FRI.FinalPoly, field.ExtOne)
		}),
		edit("drop a query round", func(p *plonk.Proof) {
			p.FRI.QueryRounds = p.FRI.QueryRounds[:len(p.FRI.QueryRounds)-1]
		}),
		edit("drop commit-phase caps", func(p *plonk.Proof) {
			p.FRI.CommitPhaseCaps = p.FRI.CommitPhaseCaps[:0]
		}),
		edit("corrupt PoW witness", func(p *plonk.Proof) {
			p.FRI.PowWitness = field.Add(p.FRI.PowWitness, field.One)
		}),
		edit("swap public inputs", func(p *plonk.Proof) {
			p.PublicInputs[0], p.PublicInputs[1] = p.PublicInputs[1], p.PublicInputs[0]
		}),
		edit("drop a public input", func(p *plonk.Proof) {
			p.PublicInputs = p.PublicInputs[:len(p.PublicInputs)-1]
		}),
	}
}

// StarkTarget builds the Fibonacci AIR, proves a valid trace, and wraps
// the serialized proof as a fault-injection target.
func StarkTarget() (Target, error) {
	s, trace, err := workloads.BuildFibonacciStark(4, fri.TestConfig())
	if err != nil {
		return Target{}, fmt.Errorf("faultinject: stark new: %w", err)
	}
	proof, err := s.Prove(trace, nil)
	if err != nil {
		return Target{}, fmt.Errorf("faultinject: stark prove: %w", err)
	}

	var enc wire.Writer
	proof.EncodeTo(&enc)
	data := append([]byte(nil), enc.Bytes()...)

	return Target{
		Name:       "stark",
		Pristine:   data,
		LenOffsets: enc.LenOffsets(),
		Verify: func(d []byte) error {
			var p stark.Proof
			if err := p.UnmarshalBinary(d); err != nil {
				return err
			}
			return s.Verify(&p)
		},
		Structured: starkStructured(),
	}, nil
}

// starkStructured mirrors plonkStructured for the Starky proof layout.
func starkStructured() []Mutant {
	edit := func(desc string, f func(p *stark.Proof)) Mutant {
		return Mutant{
			Class: "structured",
			Desc:  desc,
			Apply: func(pristine []byte) []byte {
				var p stark.Proof
				if err := p.UnmarshalBinary(pristine); err != nil {
					panic("faultinject: pristine stark proof failed to decode: " + err.Error())
				}
				f(&p)
				out, _ := p.MarshalBinary()
				return out
			},
		}
	}
	bump := func(e *field.Ext) { e.A = field.Add(e.A, field.One) }
	return []Mutant{
		edit("swap trace cap digests", func(p *stark.Proof) {
			p.TraceCap[0], p.TraceCap[1] = p.TraceCap[1], p.TraceCap[0]
		}),
		edit("swap trace cap with quotient cap", func(p *stark.Proof) {
			p.TraceCap, p.QuotientCap = p.QuotientCap, p.TraceCap
		}),
		edit("swap Merkle path siblings", func(p *stark.Proof) {
			s := p.FRI.QueryRounds[0].OracleRows[0].Proof.Siblings
			s[0], s[1] = s[1], s[0]
		}),
		edit("swap commit-phase cap digests", func(p *stark.Proof) {
			c := p.FRI.CommitPhaseCaps[0]
			c[0], c[1] = c[1], c[0]
		}),
		edit("swap fold-step pair", func(p *stark.Proof) {
			pr := &p.FRI.QueryRounds[0].Steps[0].Pair
			pr[0], pr[1] = pr[1], pr[0]
		}),
		edit("swap query rounds", func(p *stark.Proof) {
			q := p.FRI.QueryRounds
			q[0], q[1] = q[1], q[0]
		}),
		edit("swap trace openings with next-row openings", func(p *stark.Proof) {
			p.TraceOpen, p.TraceNextOpen = p.TraceNextOpen, p.TraceOpen
		}),
		edit("corrupt trace opening", func(p *stark.Proof) { bump(&p.TraceOpen[0]) }),
		edit("corrupt next-row opening", func(p *stark.Proof) { bump(&p.TraceNextOpen[0]) }),
		edit("corrupt quotient opening", func(p *stark.Proof) { bump(&p.QuotientOpen[0]) }),
		edit("truncate trace openings", func(p *stark.Proof) {
			p.TraceOpen = p.TraceOpen[:len(p.TraceOpen)-1]
		}),
		edit("extend quotient openings", func(p *stark.Proof) {
			p.QuotientOpen = append(p.QuotientOpen, field.ExtOne)
		}),
		edit("zero final polynomial", func(p *stark.Proof) {
			for i := range p.FRI.FinalPoly {
				p.FRI.FinalPoly[i] = field.ExtZero
			}
		}),
		edit("drop a query round", func(p *stark.Proof) {
			p.FRI.QueryRounds = p.FRI.QueryRounds[:len(p.FRI.QueryRounds)-1]
		}),
		edit("drop commit-phase caps", func(p *stark.Proof) {
			p.FRI.CommitPhaseCaps = p.FRI.CommitPhaseCaps[:0]
		}),
		edit("corrupt PoW witness", func(p *stark.Proof) {
			p.FRI.PowWitness = field.Add(p.FRI.PowWitness, field.One)
		}),
	}
}
