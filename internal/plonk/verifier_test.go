package plonk

import (
	"fmt"
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
)

// refConstraintCheck is the reference for checkConstraints: the
// constraint equation at ζ written out by hand, as the verifier checked
// it before the constraints were compiled,
//
//	Σ_gates α^i·gate + Σ_links α^i·link + α^{2R}·L1(ζ)·(Z(ζ) − 1) == Z_H(ζ)·t(ζ).
func refConstraintCheck(vk VerificationKey, ks, pub []field.Element, proof *Proof, cs []field.Element, zeta field.Ext) bool {
	reps := vk.Reps
	n := uint64(1) << vk.LogN
	beta, gamma, alpha := cs[0], cs[1], cs[2]
	zhZeta := field.ExtSub(field.ExtExp(zeta, n), field.ExtOne)
	if zhZeta.IsZero() {
		return false
	}
	g := field.PrimitiveRootOfUnity(vk.LogN)

	// PI(ζ) = Σ_i (−pub_i)·L_i(ζ),  L_i(ζ) = w^i·Z_H(ζ) / (N·(ζ − w^i)).
	piZeta := field.ExtZero
	wPow := field.One
	nInv := field.Inverse(field.New(n))
	for _, p := range pub {
		den := field.ExtSub(zeta, field.FromBase(wPow))
		li := field.ExtScalarMul(field.Mul(wPow, nInv),
			field.ExtMul(zhZeta, field.ExtInverse(den)))
		piZeta = field.ExtAdd(piZeta, field.ExtScalarMul(field.Neg(p), li))
		wPow = field.Mul(wPow, g)
	}

	co := proof.ConstantsOpen
	wo := proof.WiresOpen
	aPow := field.ExtOne
	lhs := field.ExtZero

	// Gate constraints, one per repetition.
	for rep := 0; rep < reps; rep++ {
		gate := field.ExtMul(co[5*rep], wo[3*rep])
		gate = field.ExtAdd(gate, field.ExtMul(co[5*rep+1], wo[3*rep+1]))
		gate = field.ExtAdd(gate, field.ExtMul(co[5*rep+2],
			field.ExtMul(wo[3*rep], wo[3*rep+1])))
		gate = field.ExtAdd(gate, field.ExtMul(co[5*rep+3], wo[3*rep+2]))
		gate = field.ExtAdd(gate, co[5*rep+4])
		if rep == 0 {
			gate = field.ExtAdd(gate, piZeta)
		}
		lhs = field.ExtAdd(lhs, field.ExtMul(aPow, gate))
		aPow = field.ExtMul(aPow, field.FromBase(alpha))
	}

	// Permutation chain: π_{g+1}·gg_g − π_g·fg_g, with π_R = Z(g·ζ).
	for grp := 0; grp < reps; grp++ {
		fAcc := field.ExtOne
		gAcc := field.ExtOne
		for k := 0; k < groupCols; k++ {
			col := groupCols*grp + k
			id := field.ExtScalarMul(field.Mul(beta, ks[col]), zeta)
			fAcc = field.ExtMul(fAcc, field.ExtAdd(field.ExtAdd(wo[col], id),
				field.FromBase(gamma)))
			sig := field.ExtScalarMul(beta, co[5*reps+col])
			gAcc = field.ExtMul(gAcc, field.ExtAdd(field.ExtAdd(wo[col], sig),
				field.FromBase(gamma)))
		}
		next := proof.ZsNextOpen[0]
		if grp < reps-1 {
			next = proof.ZsOpen[grp+1]
		}
		perm := field.ExtSub(field.ExtMul(next, gAcc),
			field.ExtMul(proof.ZsOpen[grp], fAcc))
		lhs = field.ExtAdd(lhs, field.ExtMul(aPow, perm))
		aPow = field.ExtMul(aPow, field.FromBase(alpha))
	}

	// Boundary: L1·(Z − 1).
	l1Den := field.ExtScalarMul(field.New(n), field.ExtSub(zeta, field.ExtOne))
	l1 := field.ExtMul(zhZeta, field.ExtInverse(l1Den))
	bound := field.ExtMul(l1, field.ExtSub(proof.ZsOpen[0], field.ExtOne))
	lhs = field.ExtAdd(lhs, field.ExtMul(aPow, bound))

	tZeta := field.ExtZero
	zetaN := field.ExtExp(zeta, n)
	pow := field.ExtOne
	for _, tc := range proof.QuotientOpen {
		tZeta = field.ExtAdd(tZeta, field.ExtMul(pow, tc))
		pow = field.ExtMul(pow, zetaN)
	}
	return lhs == field.ExtMul(zhZeta, tZeta)
}

// TestConstraintCheckMatchesReference gives the compiled ζ check and the
// hand-written one the same proofs — honest ones, and ones with each
// opening vector or a public input tampered — and requires the same
// verdict, with the challenges replayed from each proof's transcript.
// Tampers in repetition 0, which the circuit uses, must be rejected; a
// tamper in an unused repetition can leave the equation at ζ intact
// (there the selectors and wires vanish and σ is the identity), and is
// left to FRI.
func TestConstraintCheckMatchesReference(t *testing.T) {
	for _, reps := range []int{1, 9, 16} {
		c, w := quotientCircuit(t, fri.TestConfig(), 5, reps)
		proof, err := c.Prove(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		vk := c.VerificationKey()
		pub := proof.PublicInputs
		bump := func(v []field.Ext, i int) { v[i] = field.ExtAdd(v[i], field.ExtOne) }

		type tamper struct {
			name   string
			reject bool
			apply  func(p *Proof, pub []field.Element)
		}
		tampers := []tamper{{"honest", false, func(*Proof, []field.Element) {}}}
		for _, o := range []struct {
			name string
			get  func(p *Proof) []field.Ext
		}{
			{"constants", func(p *Proof) []field.Ext { return p.ConstantsOpen }},
			{"wires", func(p *Proof) []field.Ext { return p.WiresOpen }},
			{"Z", func(p *Proof) []field.Ext { return p.ZsOpen }},
			{"quotient", func(p *Proof) []field.Ext { return p.QuotientOpen }},
		} {
			for _, i := range []int{0, len(o.get(proof)) / 2, len(o.get(proof)) - 1} {
				tampers = append(tampers, tamper{fmt.Sprintf("%s[%d]", o.name, i), i == 0,
					func(p *Proof, _ []field.Element) { bump(o.get(p), i) }})
			}
		}
		tampers = append(tampers,
			tamper{"next-row Z[0]", true, func(p *Proof, _ []field.Element) { bump(p.ZsNextOpen, 0) }},
			tamper{"public input", true, func(_ *Proof, pub []field.Element) { pub[0] = field.Add(pub[0], field.One) }})

		for _, tc := range tampers {
			p := *proof
			p.ConstantsOpen = append([]field.Ext(nil), proof.ConstantsOpen...)
			p.WiresOpen = append([]field.Ext(nil), proof.WiresOpen...)
			p.ZsOpen = append([]field.Ext(nil), proof.ZsOpen...)
			p.ZsNextOpen = append([]field.Ext(nil), proof.ZsNextOpen...)
			p.QuotientOpen = append([]field.Ext(nil), proof.QuotientOpen...)
			tpub := append([]field.Element(nil), pub...)
			tc.apply(&p, tpub)
			r, err := vk.Replay(tpub, &p)
			if err != nil {
				t.Fatalf("reps %d, %s: replay: %v", reps, tc.name, err)
			}
			got := checkConstraints(vk, tpub, &p, r.Challenges, r.Zeta) == nil
			want := refConstraintCheck(vk, c.ks, tpub, &p, r.Challenges, r.Zeta)
			if got != want || (tc.name == "honest" && !got) || (tc.reject && got) {
				t.Errorf("reps %d, %s: compiled check %v, reference %v", reps, tc.name, got, want)
			}
		}
	}
}

// TestGateCheckReportsFirstViolation corrupts two wires of an active
// gate row and checks the prover's gate program names the first, in row
// order and then repetition order, on a repetition other than 0.
func TestGateCheckReportsFirstViolation(t *testing.T) {
	c, w, _ := wideFib(t, 100, 4)
	for _, gen := range c.generators {
		gen(w)
	}
	wires, _, pi, err := c.wireColumns(t.Context(), w)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.gateProg.Violation(c.traceColumns(wires, pi), nil); !ok {
		t.Fatal("honest trace fails the gate check")
	}
	wires[3*2+2][5] = field.Add(wires[3*2+2][5], field.One) // row 5, rep 2, output wire
	wires[3*1][9] = field.Add(wires[3*1][9], field.One)     // row 9, rep 1
	row, rep, ok := c.gateProg.Violation(c.traceColumns(wires, pi), nil)
	if ok || row != 5 || rep != 2 {
		t.Fatalf("gate check reported row %d rep %d (ok %v), want row 5 rep 2", row, rep, ok)
	}
}
