package bench

import (
	"slices"
	"strings"
	"testing"

	"unizk/internal/fri"
)

// tinyOptions keeps unit tests fast: small circuits, light FRI.
func tinyOptions() Options {
	cfg := fri.TestConfig()
	return Options{
		LogRows:   8,
		StarkLogN: 7,
		PlonkCfg:  cfg,
		StarkCfg:  cfg,
		Chip:      DefaultOptions().Chip,
	}
}

// paperOrder is the evaluation's report list (§7), then the ablation.
var paperOrder = []string{"Table 1", "Table 2", "Table 3", "Figure 8",
	"Figure 9", "Table 4", "Figure 10", "Table 5", "Table 6", "Ablation"}

func TestAllReportsGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := NewRunner(tinyOptions())
	reports, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(IDs(), paperOrder) {
		t.Fatalf("IDs() = %q, want %q", IDs(), paperOrder)
	}
	if len(reports) != len(paperOrder) {
		t.Fatalf("got %d reports, want %d", len(reports), len(paperOrder))
	}
	for i, rep := range reports {
		if rep.ID != paperOrder[i] {
			t.Errorf("report %d: ID %q, want %q", i, rep.ID, paperOrder[i])
		}
		if !strings.Contains(rep.Text, "---") || len(rep.Text) < 50 {
			t.Errorf("%s: implausibly small body", rep.ID)
		}
	}
}

func TestGenerateLookup(t *testing.T) {
	r := NewRunner(tinyOptions())
	rep, err := r.Generate("Table 2")
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "Table 2" {
		t.Fatalf("Generate(%q) returned report %q", "Table 2", rep.ID)
	}
	if len(r.runs) != 0 {
		t.Fatalf("Table 2 is simulator-only, but %d proofs were made", len(r.runs))
	}
	for _, id := range []string{"Speedup", "", "table 2", "Table 2 "} {
		if _, err := r.Generate(id); err == nil {
			t.Errorf("Generate(%q) succeeded, want an unknown-report error", id)
		}
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(tinyOptions())
	a, err := r.Plonk("Fibonacci")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Plonk("Fibonacci")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("runner did not memoize the workload run")
	}
}

func TestRunShapes(t *testing.T) {
	r := NewRunner(tinyOptions())
	run, err := r.Plonk("Factorial")
	if err != nil {
		t.Fatal(err)
	}
	if run.CPUTotal <= 0 {
		t.Error("no CPU time measured")
	}
	if len(run.Nodes) == 0 {
		t.Error("no kernel nodes recorded")
	}
	if run.ProofSize <= 0 {
		t.Error("no proof size")
	}
	if run.Sim.TotalCycles <= 0 {
		t.Error("no simulated cycles")
	}
	// The simulated accelerator must be faster than the measured CPU —
	// the paper's headline claim, at any scale.
	if run.Sim.Seconds() >= run.CPUTotal.Seconds() {
		t.Errorf("UniZK (%.4fs) not faster than CPU (%.4fs)",
			run.Sim.Seconds(), run.CPUTotal.Seconds())
	}
}

func TestStarkRun(t *testing.T) {
	r := NewRunner(tinyOptions())
	run, err := r.Stark("Fibonacci")
	if err != nil {
		t.Fatal(err)
	}
	if run.ProofSize <= 0 || run.Sim.TotalCycles <= 0 {
		t.Fatal("stark run incomplete")
	}
}

func TestTableHelpers(t *testing.T) {
	tb := &table{header: []string{"A", "Bee"}}
	tb.add("x", "y")
	s := tb.String()
	if !strings.Contains(s, "A") || !strings.Contains(s, "---") {
		t.Fatalf("table rendering wrong:\n%s", s)
	}
	if pct(0.5) != "50.0%" {
		t.Error("pct wrong")
	}
	if times(2.0) != "2.0x" {
		t.Error("times wrong")
	}
	if fmtKB(2048) != "2kB" {
		t.Error("fmtKB wrong")
	}
}
