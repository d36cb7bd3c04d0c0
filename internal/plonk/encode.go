package plonk

import (
	"fmt"

	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/prooferr"
	"unizk/internal/wire"
)

// EncodeTo serializes the proof into an existing writer. Exposed (rather
// than only MarshalBinary) so tooling like the fault-injection harness can
// capture the writer's length-prefix offsets for targeted corruption.
func (p *Proof) EncodeTo(w *wire.Writer) {
	w.Hashes(p.WiresCap)
	w.Hashes(p.ZCap)
	w.Hashes(p.QuotientCap)
	w.Exts(p.ConstantsOpen)
	w.Exts(p.WiresOpen)
	w.Exts(p.ZsOpen)
	w.Exts(p.ZsNextOpen)
	w.Exts(p.QuotientOpen)
	w.Elems(p.PublicInputs)
	p.FRI.EncodeTo(w)
}

// MarshalBinary serializes the proof (implements
// encoding.BinaryMarshaler).
func (p *Proof) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	p.EncodeTo(&w)
	return w.Bytes(), nil
}

// UnmarshalBinary deserializes a proof (implements
// encoding.BinaryUnmarshaler). Decode errors are classified as
// prooferr.ErrMalformedProof; structural validation beyond canonical field
// encodings is left to Verify.
func (p *Proof) UnmarshalBinary(data []byte) error {
	var d fri.Decoder
	err := wire.Decode(data, func(r *wire.Reader) {
		p.WiresCap = merkle.Cap(r.Hashes())
		p.ZCap = merkle.Cap(r.Hashes())
		p.QuotientCap = merkle.Cap(r.Hashes())
		p.ConstantsOpen = r.Exts()
		p.WiresOpen = r.Exts()
		p.ZsOpen = r.Exts()
		p.ZsNextOpen = r.Exts()
		p.QuotientOpen = r.Exts()
		p.PublicInputs = r.Elems()
		p.FRI = fri.DecodeProof(r, &d)
	})
	if err != nil {
		return fmt.Errorf("plonk: decode: %w: %w", err, prooferr.ErrMalformedProof)
	}
	return nil
}
