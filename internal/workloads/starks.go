package workloads

import (
	"fmt"

	"unizk/internal/constraint"
	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/stark"
)

// StarkWorkload is one Starky application (Tables 5 and 6).
type StarkWorkload struct {
	Name string
	// Build returns the STARK instance and a satisfying trace
	// (column-major).
	Build func(logN int, cfg fri.Config) (*stark.Stark, [][]field.Element, error)
}

// Starks returns the Starky base-proof workloads of Table 5.
func Starks() []StarkWorkload {
	return []StarkWorkload{
		{Name: "Factorial", Build: BuildFactorialStark},
		{Name: "Fibonacci", Build: BuildFibonacciStark},
		{Name: "SHA-256", Build: BuildSHA256Stark},
	}
}

// StarkByName returns the named Starky workload; AES-128 (Table 6) is
// also available here.
func StarkByName(name string) (StarkWorkload, error) {
	all := append(Starks(), StarkWorkload{Name: "AES-128", Build: BuildAES128Stark})
	for _, w := range all {
		if w.Name == name {
			return w, nil
		}
	}
	return StarkWorkload{}, fmt.Errorf("workloads: unknown stark workload %q", name)
}

// BuildFactorialStark proves N-step factorial: columns (index, acc) with
// index' = index + 1 and acc' = acc·index'.
func BuildFactorialStark(logN int, cfg fri.Config) (*stark.Stark, [][]field.Element, error) {
	n := 1 << logN
	idx := make([]field.Element, n)
	acc := make([]field.Element, n)
	idx[0], acc[0] = field.One, field.One
	for r := 1; r < n; r++ {
		idx[r] = field.Add(idx[r-1], field.One)
		acc[r] = field.Mul(acc[r-1], idx[r])
	}
	air := stark.AIR{
		Width: 2,
		Transitions: []*constraint.Expr{
			constraint.Sub(constraint.Next(0), constraint.Add(constraint.Col(0), constraint.Const(field.One))),
			constraint.Sub(constraint.Next(1), constraint.Mul(constraint.Col(1), constraint.Next(0))),
		},
		FirstRow: []stark.Boundary{{Col: 0, Value: field.One}, {Col: 1, Value: field.One}},
		LastRow:  []stark.Boundary{{Col: 1, Value: acc[n-1]}},
	}
	s, err := stark.New(air, logN, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s, [][]field.Element{idx, acc}, nil
}

// BuildFibonacciStark is the paper's Fig. 2 AET.
func BuildFibonacciStark(logN int, cfg fri.Config) (*stark.Stark, [][]field.Element, error) {
	n := 1 << logN
	c0 := make([]field.Element, n)
	c1 := make([]field.Element, n)
	c0[0], c1[0] = field.Zero, field.One
	for r := 1; r < n; r++ {
		c0[r] = c1[r-1]
		c1[r] = field.Add(c0[r-1], c1[r-1])
	}
	air := stark.AIR{
		Width: 2,
		Transitions: []*constraint.Expr{
			constraint.Sub(constraint.Next(0), constraint.Col(1)),
			constraint.Sub(constraint.Next(1), constraint.Add(constraint.Col(0), constraint.Col(1))),
		},
		FirstRow: []stark.Boundary{{Col: 0, Value: 0}, {Col: 1, Value: 1}},
		LastRow:  []stark.Boundary{{Col: 1, Value: c1[n-1]}},
	}
	s, err := stark.New(air, logN, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s, [][]field.Element{c0, c1}, nil
}

// BuildSHA256Stark is a hash-round AET in the style of the sha256-starky
// implementation the paper evaluates: a wide boolean working state updated
// by XOR networks each step (see DESIGN.md §2.8 for the substitution).
func BuildSHA256Stark(logN int, cfg fri.Config) (*stark.Stark, [][]field.Element, error) {
	return buildBooleanRoundStark(logN, cfg, 32, 0x6a09e667)
}

// BuildAES128Stark is the analogous round-function AET for AES-128
// (Table 6), with a narrower 16-column state.
func BuildAES128Stark(logN int, cfg fri.Config) (*stark.Stark, [][]field.Element, error) {
	return buildBooleanRoundStark(logN, cfg, 16, 0x2b7e1516)
}

// buildBooleanRoundStark builds a width-w AET where each step updates
// every bit column as c_i' = c_i ⊕ c_{i+1} (XOR of boolean values:
// a + b − 2ab, a degree-2 transition), seeded from an IV.
func buildBooleanRoundStark(logN int, cfg fri.Config, width int, iv uint64) (*stark.Stark, [][]field.Element, error) {
	n := 1 << logN
	cols := make([][]field.Element, width)
	for i := range cols {
		cols[i] = make([]field.Element, n)
		cols[i][0] = field.New((iv >> uint(i)) & 1)
	}
	xor := func(a, b field.Element) field.Element {
		return field.Sub(field.Add(a, b), field.Double(field.Mul(a, b)))
	}
	for r := 1; r < n; r++ {
		for i := 0; i < width; i++ {
			cols[i][r] = xor(cols[i][r-1], cols[(i+1)%width][r-1])
		}
	}

	var transitions []*constraint.Expr
	var firstRow []stark.Boundary
	for i := 0; i < width; i++ {
		a, b := constraint.Col(i), constraint.Col((i+1)%width)
		x := constraint.Sub(constraint.Add(a, b),
			constraint.Mul(constraint.Const(field.Two), constraint.Mul(a, b)))
		transitions = append(transitions, constraint.Sub(constraint.Next(i), x))
		firstRow = append(firstRow, stark.Boundary{Col: i, Value: cols[i][0]})
	}
	air := stark.AIR{
		Width:       width,
		Transitions: transitions,
		FirstRow:    firstRow,
		LastRow:     []stark.Boundary{{Col: 0, Value: cols[0][n-1]}},
	}
	s, err := stark.New(air, logN, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s, cols, nil
}

// RecursionWorkload returns the Plonky2 circuit standing in for the
// recursive proof-compression stage of Table 5: a circuit with the size
// and shape of a FRI verifier — dominated by in-circuit Poseidon rounds
// (x^7 S-box chains and linear layers) with Merkle-path selection logic —
// at Plonky2's standard recursion size of ~2^12 rows (DESIGN.md §2.7).
func RecursionWorkload() Workload {
	return Workload{Name: "Recursive", Build: buildRecursionCircuit}
}
