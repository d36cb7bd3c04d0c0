package stark_test

import (
	"fmt"
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/workloads"
)

// TestQuotientMatchesReference pins the tiled, program-driven quotient to
// the per-point tree-walking reference, and to the natural-order quotient
// over a full coset re-extension, chunk for chunk, on every workload AIR
// across trace sizes and at rates 1 to 3: at rate 1 half the coset is
// transformed, at rates 2 and 3 all of it is read from the commitment.
func TestQuotientMatchesReference(t *testing.T) {
	for _, cfg := range []fri.Config{fri.StarkyConfig(), fri.TestConfig(), fri.PlonkyConfig()} {
		cfg.CapHeight = 0 // 2^2 rows leave fewer leaves than the default cap
		for _, name := range []string{"Factorial", "Fibonacci", "SHA-256", "AES-128"} {
			wl, err := workloads.StarkByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for logN := 2; logN <= 8; logN++ {
				label := fmt.Sprintf("rate %d/%s/2^%d", cfg.RateBits, name, logN)
				s, cols, err := wl.Build(logN, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, natural, want, err := s.QuotientAndReference(cols, field.New(uint64(0x9e3779b9+logN)))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for k := range want {
					for r := range want[k] {
						if got[k][r] != natural[k][r] {
							t.Fatalf("%s: chunk %d coefficient %d: got %v, natural order %v", label, k, r, got[k][r], natural[k][r])
						}
						if got[k][r] != want[k][r] {
							t.Fatalf("%s: chunk %d coefficient %d: got %v, want %v", label, k, r, got[k][r], want[k][r])
						}
					}
				}
			}
		}
	}
}
