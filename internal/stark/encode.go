package stark

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
	w.Hashes(p.TraceCap)
	w.Hashes(p.QuotientCap)
	w.Exts(p.TraceOpen)
	w.Exts(p.TraceNextOpen)
	w.Exts(p.QuotientOpen)
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
// prooferr.ErrMalformedProof; structural validation beyond canonical
// field encodings is left to Verify.
func (p *Proof) UnmarshalBinary(data []byte) error {
	var d fri.Decoder
	err := wire.Decode(data, func(r *wire.Reader) {
		p.TraceCap = merkle.Cap(r.Hashes())
		p.QuotientCap = merkle.Cap(r.Hashes())
		p.TraceOpen = r.Exts()
		p.TraceNextOpen = r.Exts()
		p.QuotientOpen = r.Exts()
		p.FRI = fri.DecodeProof(r, &d)
	})
	if err != nil {
		return fmt.Errorf("stark: decode: %w: %w", err, prooferr.ErrMalformedProof)
	}
	return nil
}
