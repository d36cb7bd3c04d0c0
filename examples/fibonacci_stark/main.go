// Fibonacci STARK: the paper's Fig. 2 Algebraic Execution Trace — columns
// (x0, x1) with transitions x0' = x1, x1' = x0 + x1 — proved with Starky
// (blowup factor 2) and verified. The example also shows the kernel
// computation graph the prover hands to the UniZK simulator.
package main

import (
	"fmt"
	"log"
	"time"

	"unizk/internal/constraint"
	"unizk/internal/core"
	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/stark"
	"unizk/internal/trace"
)

func main() {
	const logN = 12
	n := 1 << logN

	// Build the AET (paper Fig. 2).
	x0 := make([]field.Element, n)
	x1 := make([]field.Element, n)
	x0[0], x1[0] = field.Zero, field.One
	for r := 1; r < n; r++ {
		x0[r] = x1[r-1]
		x1[r] = field.Add(x0[r-1], x1[r-1])
	}
	air := stark.AIR{
		Width: 2,
		Transitions: []*constraint.Expr{
			constraint.Sub(constraint.Next(0), constraint.Col(1)),
			constraint.Sub(constraint.Next(1), constraint.Add(constraint.Col(0), constraint.Col(1))),
		},
		FirstRow: []stark.Boundary{{Col: 0, Value: 0}, {Col: 1, Value: 1}},
		LastRow:  []stark.Boundary{{Col: 1, Value: x1[n-1]}},
	}
	s, err := stark.New(air, logN, fri.StarkyConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AET: %d rows × %d columns; claim: Fib(%d) = %d\n",
		n, air.Width, n, x1[n-1])

	rec := trace.New()
	start := time.Now()
	proof, err := s.Prove([][]field.Element{x0, x1}, rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proved in %v\n", time.Since(start))

	start = time.Now()
	if err := s.Verify(proof); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified in %v\n", time.Since(start))

	// The recorded kernel graph, simulated on UniZK.
	res := core.Simulate(rec.Nodes(), core.DefaultConfig())
	fmt.Printf("kernel graph: %d nodes; simulated UniZK time: %.3f ms\n",
		len(rec.Nodes()), res.Seconds()*1e3)
	for c := core.Class(0); c < core.NumClasses; c++ {
		fmt.Printf("  %-5s %10d cycles\n", c, res.Cycles[c])
	}
}
