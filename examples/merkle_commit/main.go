// Merkle commitment walkthrough: the three FRI commitment steps of paper
// Fig. 1 right — iNTT^NN to coefficients, low degree extension with
// NTT^NR on the coset, Merkle tree over the LDE's rows — followed by a
// leaf audit (the verifier querying a random leaf and checking the
// authentication path, §2.2).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
)

func main() {
	const (
		numPolys = 16
		logN     = 10
		rateBits = 3 // blowup factor 8, the Plonky2 minimum (§2.2)
		capH     = 4
	)
	n := 1 << logN

	// Random polynomials in evaluation form.
	rng := rand.New(rand.NewSource(42))
	values := make([][]field.Element, numPolys)
	for i := range values {
		values[i] = make([]field.Element, n)
		for j := range values[i] {
			values[i][j] = field.New(rng.Uint64())
		}
	}

	// Steps 1-3 of FRI commitment.
	batch, err := fri.CommitValues(context.Background(), values, rateBits, capH, nil)
	if err != nil {
		log.Fatal(err)
	}
	cap := batch.Cap()
	fmt.Printf("committed %d polynomials of degree < %d\n", numPolys, n)
	fmt.Printf("LDE domain: %d points (blowup %d), Merkle cap: %d digests\n",
		batch.Tree.NumLeaves(), 1<<rateBits, len(cap))

	// The verifier queries a random leaf; the prover answers with the
	// row values and the authentication path from leaf to cap.
	index := rng.Intn(batch.Tree.NumLeaves())
	row, proof := batch.Row(index), batch.Tree.Open(index)
	fmt.Printf("opened leaf %d: %d values, %d path siblings\n",
		index, len(row), len(proof.Siblings))

	if err := merkle.Verify(row, index, proof, cap); err != nil {
		log.Fatal(err)
	}
	fmt.Println("authentication path verified")

	// Tampering with any opened value breaks the path.
	row[3] = field.Add(row[3], field.One)
	if err := merkle.Verify(row, index, proof, cap); err == nil {
		log.Fatal("tampered row accepted")
	}
	fmt.Println("tampered row rejected, as expected")
}
