package wire_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/plonk"
	"unizk/internal/poseidon"
	"unizk/internal/prooferr"
	"unizk/internal/stark"
	"unizk/internal/wire"
	"unizk/internal/workloads"
)

// refReader is the element-at-a-time decoder wire.Reader replaced: every
// collection its own array, every word bounds- and canonical-checked on
// its own. It is the oracle the arena decoder is checked against.
type refReader struct {
	data []byte
	pos  int
	err  error
}

func (r *refReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *refReader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", wire.ErrInvalid, len(r.data)-r.pos)
	}
	return nil
}

func (r *refReader) Len() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 || v > 1<<28 || v > uint64(len(r.data)-r.pos-n) {
		r.fail(wire.ErrTruncated)
		return 0
	}
	r.pos += n
	return int(v)
}

func (r *refReader) lenFor(elemBytes int) int {
	n := r.Len()
	if r.err != nil {
		return 0
	}
	if n*elemBytes > len(r.data)-r.pos {
		r.fail(wire.ErrTruncated)
		return 0
	}
	return n
}

func (r *refReader) Elem() field.Element {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.data) {
		r.fail(wire.ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	if v >= field.Order {
		r.fail(fmt.Errorf("%w: non-canonical field element", wire.ErrInvalid))
		return 0
	}
	return field.New(v)
}

func (r *refReader) Elems() []field.Element {
	n := r.lenFor(8)
	if r.err != nil {
		return nil
	}
	out := make([]field.Element, n)
	for i := range out {
		out[i] = r.Elem()
	}
	return out
}

func (r *refReader) Ext() field.Ext {
	a := r.Elem()
	b := r.Elem()
	return field.Ext{A: a, B: b}
}

func (r *refReader) Exts() []field.Ext {
	n := r.lenFor(16)
	if r.err != nil {
		return nil
	}
	out := make([]field.Ext, n)
	for i := range out {
		out[i] = r.Ext()
	}
	return out
}

func (r *refReader) Hash() poseidon.HashOut {
	var h poseidon.HashOut
	for i := range h {
		h[i] = r.Elem()
	}
	return h
}

func (r *refReader) Hashes() []poseidon.HashOut {
	n := r.lenFor(32)
	if r.err != nil {
		return nil
	}
	out := make([]poseidon.HashOut, n)
	for i := range out {
		out[i] = r.Hash()
	}
	return out
}

func refFRI(r *refReader) *fri.Proof {
	p := &fri.Proof{}
	nCaps := r.Len()
	for i := 0; i < nCaps && r.err == nil; i++ {
		p.CommitPhaseCaps = append(p.CommitPhaseCaps, merkle.Cap(r.Hashes()))
	}
	nRounds := r.Len()
	for i := 0; i < nRounds && r.err == nil; i++ {
		var q fri.QueryRound
		nRows := r.Len()
		for j := 0; j < nRows && r.err == nil; j++ {
			q.OracleRows = append(q.OracleRows, fri.OracleRow{
				Values: r.Elems(),
				Proof:  merkle.Proof{Siblings: r.Hashes()},
			})
		}
		nSteps := r.Len()
		for j := 0; j < nSteps && r.err == nil; j++ {
			var s fri.QueryStep
			s.Pair[0] = r.Ext()
			s.Pair[1] = r.Ext()
			s.Proof = merkle.Proof{Siblings: r.Hashes()}
			q.Steps = append(q.Steps, s)
		}
		p.QueryRounds = append(p.QueryRounds, q)
	}
	p.FinalPoly = r.Exts()
	p.PowWitness = r.Elem()
	return p
}

func refPlonk(data []byte) (*plonk.Proof, error) {
	r := &refReader{data: data}
	p := &plonk.Proof{}
	p.WiresCap = merkle.Cap(r.Hashes())
	p.ZCap = merkle.Cap(r.Hashes())
	p.QuotientCap = merkle.Cap(r.Hashes())
	p.ConstantsOpen = r.Exts()
	p.WiresOpen = r.Exts()
	p.ZsOpen = r.Exts()
	p.ZsNextOpen = r.Exts()
	p.QuotientOpen = r.Exts()
	p.PublicInputs = r.Elems()
	p.FRI = refFRI(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("plonk: decode: %w: %w", err, prooferr.ErrMalformedProof)
	}
	return p, nil
}

func refStark(data []byte) (*stark.Proof, error) {
	r := &refReader{data: data}
	p := &stark.Proof{}
	p.TraceCap = merkle.Cap(r.Hashes())
	p.QuotientCap = merkle.Cap(r.Hashes())
	p.TraceOpen = r.Exts()
	p.TraceNextOpen = r.Exts()
	p.QuotientOpen = r.Exts()
	p.FRI = refFRI(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("stark: decode: %w: %w", err, prooferr.ErrMalformedProof)
	}
	return p, nil
}

// decodeProofs returns a small plonk proof and a small stark proof,
// encoded.
func decodeProofs(tb testing.TB) (plonkData, starkData []byte) {
	b := plonk.NewBuilder()
	x := b.AddPublicInput()
	out := b.AddPublicInput()
	b.Connect(b.Add(b.Mul(x, x), x), out)
	c := b.Build(fri.TestConfig())
	w := c.NewWitness()
	w.Set(x, field.New(5))
	w.Set(out, field.New(30))
	pp, err := c.Prove(w, nil)
	if err != nil {
		tb.Fatal(err)
	}
	s, cols, err := workloads.BuildFibonacciStark(4, fri.TestConfig())
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := s.Prove(cols, nil)
	if err != nil {
		tb.Fatal(err)
	}
	plonkData, _ = pp.MarshalBinary()
	starkData, _ = sp.MarshalBinary()
	return plonkData, starkData
}

// checkDecodersAgree decodes data as a plonk proof (kind even) or a stark
// proof (kind odd) with UnmarshalBinary and with the reference decoder,
// and fails unless both reject it with the same error or both accept it
// with equal proofs.
func checkDecodersAgree(t *testing.T, kind uint8, data []byte) {
	t.Helper()
	var (
		got, want       any
		gotErr, wantErr error
	)
	if kind%2 == 0 {
		var p plonk.Proof
		gotErr, got = p.UnmarshalBinary(data), &p
		want, wantErr = refPlonk(data)
	} else {
		var p stark.Proof
		gotErr, got = p.UnmarshalBinary(data), &p
		want, wantErr = refStark(data)
	}
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("kind %d, %d bytes: UnmarshalBinary: %v, reference: %v", kind, len(data), gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() || !errors.Is(gotErr, prooferr.ErrMalformedProof) {
			t.Fatalf("kind %d, %d bytes: UnmarshalBinary: %v, reference: %v", kind, len(data), gotErr, wantErr)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("kind %d, %d bytes: the decoders' proofs differ", kind, len(data))
	}
}

// mutations returns data truncated, with flipped bytes, and with a
// word made non-canonical, at positions drawn from rng.
func mutations(rng *rand.Rand, data []byte) [][]byte {
	out := [][]byte{data, data[:0], data[:len(data)/2], data[:len(data)-1], append(append([]byte(nil), data...), 0)}
	for n := 0; n < 16; n++ {
		out = append(out, data[:rng.Intn(len(data))])
		flipped := append([]byte(nil), data...)
		flipped[rng.Intn(len(flipped))] ^= byte(1 << rng.Intn(8))
		out = append(out, flipped)
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(bad[rng.Intn(len(bad)-8):], field.Order+uint64(rng.Intn(1<<20)))
		out = append(out, bad)
	}
	return out
}

// FuzzDecodeMatchesReference checks that the arena decoder behind the
// plonk and stark UnmarshalBinary accepts and rejects the same bytes as
// the element-at-a-time reference, with the same errors, and decodes
// equal proofs from what both accept.
func FuzzDecodeMatchesReference(f *testing.F) {
	plonkData, starkData := decodeProofs(f)
	rng := rand.New(rand.NewSource(45))
	for kind, data := range [][]byte{plonkData, starkData} {
		for _, m := range mutations(rng, data) {
			f.Add(uint8(kind), m)
		}
	}
	f.Fuzz(checkDecodersAgree)
}

// TestDecodeNonCanonicalBeforeEnd puts a non-canonical word at every
// offset of each proof, then ends the stream four bytes into the next
// word: inside a run that is not length-prefixed (an extension element
// of a fold step, the witness) the reference fails on the non-canonical
// word first, and so must the arena decoder.
func TestDecodeNonCanonicalBeforeEnd(t *testing.T) {
	plonkData, starkData := decodeProofs(t)
	for kind, data := range [][]byte{plonkData, starkData} {
		for o := 0; o+12 <= len(data); o++ {
			bad := append([]byte(nil), data[:o+12]...)
			binary.LittleEndian.PutUint64(bad[o:], field.Order)
			checkDecodersAgree(t, uint8(kind), bad)
		}
	}
}
