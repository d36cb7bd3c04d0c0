package fri

import (
	"unizk/internal/merkle"
	"unizk/internal/wire"
)

// EncodeTo serializes the FRI proof.
func (p *Proof) EncodeTo(w *wire.Writer) {
	w.Len(len(p.CommitPhaseCaps))
	for _, c := range p.CommitPhaseCaps {
		w.Hashes(c)
	}
	w.Len(len(p.QueryRounds))
	for _, q := range p.QueryRounds {
		w.Len(len(q.OracleRows))
		for _, row := range q.OracleRows {
			w.Elems(row.Values)
			w.Hashes(row.Proof.Siblings)
		}
		w.Len(len(q.Steps))
		for _, s := range q.Steps {
			w.Ext(s.Pair[0])
			w.Ext(s.Pair[1])
			w.Hashes(s.Proof.Siblings)
		}
	}
	w.Exts(p.FinalPoly)
	w.Elem(p.PowWitness)
}

// Decoder carries a FRI proof's shape from wire.Decode's sizing pass,
// which counts its commit-phase caps, query rounds, opened rows and fold
// steps, to the filling pass, which carves each kind from one exactly
// sized array.
type Decoder struct {
	nCaps, nRounds, nRows, nSteps int
	caps                          []merkle.Cap
	rounds                        []QueryRound
	rows                          []OracleRow
	steps                         []QueryStep
}

// slots returns n entries carved from *arena, nil for none, or, in a
// sizing pass, adds n to *count and returns nil.
func slots[T any](r *wire.Reader, arena *[]T, count *int, n int) []T {
	if r.Sizing() {
		*count += n
		return nil
	}
	if n == 0 {
		return nil
	}
	return wire.Carve(arena, n)
}

// DecodeProof deserializes a FRI proof, returning nil in wire.Decode's
// sizing pass. d must be the same Decoder in both passes; on a reader
// outside wire.Decode a zero Decoder gives each slice its own array.
func DecodeProof(r *wire.Reader, d *Decoder) *Proof {
	if !r.Sizing() {
		d.caps, d.rounds = make([]merkle.Cap, d.nCaps), make([]QueryRound, d.nRounds)
		d.rows, d.steps = make([]OracleRow, d.nRows), make([]QueryStep, d.nSteps)
	}
	nCaps := r.Len()
	caps := slots(r, &d.caps, &d.nCaps, nCaps)
	for i := 0; i < nCaps && r.Err() == nil; i++ {
		c := r.Hashes()
		if caps != nil {
			caps[i] = c
		}
	}
	nRounds := r.Len()
	rounds := slots(r, &d.rounds, &d.nRounds, nRounds)
	for i := 0; i < nRounds && r.Err() == nil; i++ {
		nRows := r.Len()
		rows := slots(r, &d.rows, &d.nRows, nRows)
		for j := 0; j < nRows && r.Err() == nil; j++ {
			row := OracleRow{Values: r.Elems(), Proof: merkle.Proof{Siblings: r.Hashes()}}
			if rows != nil {
				rows[j] = row
			}
		}
		nSteps := r.Len()
		steps := slots(r, &d.steps, &d.nSteps, nSteps)
		for j := 0; j < nSteps && r.Err() == nil; j++ {
			var s QueryStep
			s.Pair[0] = r.Ext()
			s.Pair[1] = r.Ext()
			s.Proof = merkle.Proof{Siblings: r.Hashes()}
			if steps != nil {
				steps[j] = s
			}
		}
		if rounds != nil {
			rounds[i] = QueryRound{OracleRows: rows, Steps: steps}
		}
	}
	finalPoly := r.Exts()
	powWitness := r.Elem()
	if r.Sizing() {
		return nil
	}
	return &Proof{CommitPhaseCaps: caps, QueryRounds: rounds, FinalPoly: finalPoly, PowWitness: powWitness}
}
