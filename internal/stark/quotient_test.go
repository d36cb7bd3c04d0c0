package stark_test

import (
	"fmt"
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/workloads"
)

// TestQuotientMatchesReference pins the tiled, program-driven quotient to
// the per-point tree-walking reference, chunk for chunk, on every
// workload AIR across trace sizes.
func TestQuotientMatchesReference(t *testing.T) {
	cfg := fri.StarkyConfig()
	cfg.CapHeight = 0 // 2^2 rows leave fewer leaves than the default cap
	for _, name := range []string{"Factorial", "Fibonacci", "SHA-256", "AES-128"} {
		wl, err := workloads.StarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for logN := 2; logN <= 8; logN++ {
			label := fmt.Sprintf("%s/2^%d", name, logN)
			s, cols, err := wl.Build(logN, cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, want, err := s.QuotientAndReference(cols, field.New(uint64(0x9e3779b9+logN)))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for k := range want {
				for r := range want[k] {
					if got[k][r] != want[k][r] {
						t.Fatalf("%s: chunk %d coefficient %d: got %v, want %v", label, k, r, got[k][r], want[k][r])
					}
				}
			}
		}
	}
}
