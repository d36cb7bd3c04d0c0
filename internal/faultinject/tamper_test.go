package faultinject

import (
	"encoding/binary"
	"errors"
	"testing"

	"unizk/internal/field"
	"unizk/internal/plonk"
	"unizk/internal/prooferr"
	"unizk/internal/stark"
)

// These tables pin down the error taxonomy per proof component: shape
// violations must classify as ErrMalformedProof, well-formed proofs with
// wrong cryptographic content as ErrProofRejected — and never a recovered
// panic, which would mean a structural check is missing.

func checkClass(t *testing.T, name string, err error, want error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: tampered proof accepted", name)
		return
	}
	if errors.Is(err, prooferr.ErrPanicRecovered) {
		t.Errorf("%s: rejection came from a recovered panic: %v", name, err)
		return
	}
	if !errors.Is(err, want) {
		t.Errorf("%s: error %v, want class %v", name, err, want)
	}
}

// stampElem overwrites the first full field element (just past the leading
// cap-length uvarint) with 0xFF bytes, which exceeds the Goldilocks order.
func stampElem(data []byte) []byte {
	_, n := binary.Uvarint(data)
	m := append([]byte(nil), data...)
	for i := 0; i < 8; i++ {
		m[n+i] = 0xFF
	}
	return m
}

// hugeLen rewrites the leading collection-length uvarint to 1<<40, far past
// the reader's allocation guard.
func hugeLen(data []byte) []byte {
	_, n := binary.Uvarint(data)
	m := binary.AppendUvarint(nil, 1<<40)
	return append(m, data[n:]...)
}

func TestPlonkTamperTaxonomy(t *testing.T) {
	target, err := PlonkTarget()
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(p *plonk.Proof)) func([]byte) []byte {
		return func(pristine []byte) []byte {
			var p plonk.Proof
			if err := p.UnmarshalBinary(pristine); err != nil {
				t.Fatalf("pristine proof failed to decode: %v", err)
			}
			f(&p)
			out, _ := p.MarshalBinary()
			return out
		}
	}
	cases := []struct {
		name  string
		apply func([]byte) []byte
		want  error
	}{
		// Shape violations → malformed.
		{"truncated stream", func(d []byte) []byte { return d[:len(d)/2] }, prooferr.ErrMalformedProof},
		{"non-canonical field element", stampElem, prooferr.ErrMalformedProof},
		{"oversized length prefix", hugeLen, prooferr.ErrMalformedProof},
		{"truncated wires openings", edit(func(p *plonk.Proof) {
			p.WiresOpen = p.WiresOpen[:len(p.WiresOpen)-1]
		}), prooferr.ErrMalformedProof},
		{"extended Z openings", edit(func(p *plonk.Proof) {
			p.ZsOpen = append(p.ZsOpen, field.ExtOne)
		}), prooferr.ErrMalformedProof},
		{"dropped public input", edit(func(p *plonk.Proof) {
			p.PublicInputs = p.PublicInputs[:len(p.PublicInputs)-1]
		}), prooferr.ErrMalformedProof},
		{"wrong wires cap size", edit(func(p *plonk.Proof) {
			p.WiresCap = p.WiresCap[:1]
		}), prooferr.ErrMalformedProof},
		{"wrong Z cap size", edit(func(p *plonk.Proof) {
			p.ZCap = p.ZCap[:1]
		}), prooferr.ErrMalformedProof},
		{"wrong quotient cap size", edit(func(p *plonk.Proof) {
			p.QuotientCap = append(p.QuotientCap, p.QuotientCap[0])
		}), prooferr.ErrMalformedProof},
		{"truncated constants openings", edit(func(p *plonk.Proof) {
			p.ConstantsOpen = p.ConstantsOpen[:len(p.ConstantsOpen)-1]
		}), prooferr.ErrMalformedProof},
		{"extended next-row Z openings", edit(func(p *plonk.Proof) {
			p.ZsNextOpen = append(p.ZsNextOpen, field.ExtOne)
		}), prooferr.ErrMalformedProof},
		{"truncated quotient openings", edit(func(p *plonk.Proof) {
			p.QuotientOpen = p.QuotientOpen[:len(p.QuotientOpen)-1]
		}), prooferr.ErrMalformedProof},
		{"dropped query round", edit(func(p *plonk.Proof) {
			p.FRI.QueryRounds = p.FRI.QueryRounds[:len(p.FRI.QueryRounds)-1]
		}), prooferr.ErrMalformedProof},
		{"dropped commit-phase caps", edit(func(p *plonk.Proof) {
			p.FRI.CommitPhaseCaps = p.FRI.CommitPhaseCaps[:0]
		}), prooferr.ErrMalformedProof},
		{"extended final polynomial", edit(func(p *plonk.Proof) {
			p.FRI.FinalPoly = append(p.FRI.FinalPoly, field.ExtOne)
		}), prooferr.ErrMalformedProof},
		{"truncated Merkle path", edit(func(p *plonk.Proof) {
			pr := &p.FRI.QueryRounds[0].OracleRows[0].Proof
			pr.Siblings = pr.Siblings[:len(pr.Siblings)-1]
		}), prooferr.ErrMalformedProof},

		// Well-formed but cryptographically wrong → rejected.
		{"corrupted wires cap digest", edit(func(p *plonk.Proof) {
			p.WiresCap[0][0] = field.Add(p.WiresCap[0][0], field.One)
		}), prooferr.ErrProofRejected},
		{"swapped Z and quotient caps", edit(func(p *plonk.Proof) {
			p.ZCap, p.QuotientCap = p.QuotientCap, p.ZCap
		}), prooferr.ErrProofRejected},
		{"corrupted wires opening", edit(func(p *plonk.Proof) {
			p.WiresOpen[0].A = field.Add(p.WiresOpen[0].A, field.One)
		}), prooferr.ErrProofRejected},
		{"swapped Z openings", edit(func(p *plonk.Proof) {
			p.ZsOpen, p.ZsNextOpen = p.ZsNextOpen, p.ZsOpen
		}), prooferr.ErrProofRejected},
		{"corrupted Merkle sibling", edit(func(p *plonk.Proof) {
			s := p.FRI.QueryRounds[0].OracleRows[0].Proof.Siblings
			s[0][0] = field.Add(s[0][0], field.One)
		}), prooferr.ErrProofRejected},
		{"corrupted PoW witness", edit(func(p *plonk.Proof) {
			p.FRI.PowWitness = field.Add(p.FRI.PowWitness, field.One)
		}), prooferr.ErrProofRejected},
		{"zeroed final polynomial", edit(func(p *plonk.Proof) {
			for i := range p.FRI.FinalPoly {
				p.FRI.FinalPoly[i] = field.ExtZero
			}
		}), prooferr.ErrProofRejected},
		{"swapped public inputs", edit(func(p *plonk.Proof) {
			p.PublicInputs[0], p.PublicInputs[1] = p.PublicInputs[1], p.PublicInputs[0]
		}), prooferr.ErrProofRejected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkClass(t, tc.name, target.Verify(tc.apply(target.Pristine)), tc.want)
		})
	}
}

func TestStarkTamperTaxonomy(t *testing.T) {
	target, err := StarkTarget()
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(p *stark.Proof)) func([]byte) []byte {
		return func(pristine []byte) []byte {
			var p stark.Proof
			if err := p.UnmarshalBinary(pristine); err != nil {
				t.Fatalf("pristine proof failed to decode: %v", err)
			}
			f(&p)
			out, _ := p.MarshalBinary()
			return out
		}
	}
	cases := []struct {
		name  string
		apply func([]byte) []byte
		want  error
	}{
		// Shape violations → malformed.
		{"truncated stream", func(d []byte) []byte { return d[:len(d)/2] }, prooferr.ErrMalformedProof},
		{"non-canonical field element", stampElem, prooferr.ErrMalformedProof},
		{"oversized length prefix", hugeLen, prooferr.ErrMalformedProof},
		{"truncated trace openings", edit(func(p *stark.Proof) {
			p.TraceOpen = p.TraceOpen[:len(p.TraceOpen)-1]
		}), prooferr.ErrMalformedProof},
		{"extended quotient openings", edit(func(p *stark.Proof) {
			p.QuotientOpen = append(p.QuotientOpen, field.ExtOne)
		}), prooferr.ErrMalformedProof},
		{"wrong trace cap size", edit(func(p *stark.Proof) {
			p.TraceCap = p.TraceCap[:1]
		}), prooferr.ErrMalformedProof},
		{"wrong quotient cap size", edit(func(p *stark.Proof) {
			p.QuotientCap = p.QuotientCap[:1]
		}), prooferr.ErrMalformedProof},
		{"truncated next-row trace openings", edit(func(p *stark.Proof) {
			p.TraceNextOpen = p.TraceNextOpen[:len(p.TraceNextOpen)-1]
		}), prooferr.ErrMalformedProof},
		{"dropped query round", edit(func(p *stark.Proof) {
			p.FRI.QueryRounds = p.FRI.QueryRounds[:len(p.FRI.QueryRounds)-1]
		}), prooferr.ErrMalformedProof},
		{"dropped commit-phase caps", edit(func(p *stark.Proof) {
			p.FRI.CommitPhaseCaps = p.FRI.CommitPhaseCaps[:0]
		}), prooferr.ErrMalformedProof},

		// Well-formed but cryptographically wrong → rejected.
		{"corrupted trace cap digest", edit(func(p *stark.Proof) {
			p.TraceCap[0][0] = field.Add(p.TraceCap[0][0], field.One)
		}), prooferr.ErrProofRejected},
		{"swapped trace and quotient caps", edit(func(p *stark.Proof) {
			p.TraceCap, p.QuotientCap = p.QuotientCap, p.TraceCap
		}), prooferr.ErrProofRejected},
		{"corrupted trace opening", edit(func(p *stark.Proof) {
			p.TraceOpen[0].A = field.Add(p.TraceOpen[0].A, field.One)
		}), prooferr.ErrProofRejected},
		{"swapped row openings", edit(func(p *stark.Proof) {
			p.TraceOpen, p.TraceNextOpen = p.TraceNextOpen, p.TraceOpen
		}), prooferr.ErrProofRejected},
		{"corrupted Merkle sibling", edit(func(p *stark.Proof) {
			s := p.FRI.QueryRounds[0].OracleRows[0].Proof.Siblings
			s[0][0] = field.Add(s[0][0], field.One)
		}), prooferr.ErrProofRejected},
		{"corrupted PoW witness", edit(func(p *stark.Proof) {
			p.FRI.PowWitness = field.Add(p.FRI.PowWitness, field.One)
		}), prooferr.ErrProofRejected},
		{"zeroed final polynomial", edit(func(p *stark.Proof) {
			for i := range p.FRI.FinalPoly {
				p.FRI.FinalPoly[i] = field.ExtZero
			}
		}), prooferr.ErrProofRejected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkClass(t, tc.name, target.Verify(tc.apply(target.Pristine)), tc.want)
		})
	}
}
