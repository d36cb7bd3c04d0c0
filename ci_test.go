package unizk_test

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestCIStagesMatchWorkflow keeps ci.sh the only definition of each CI
// gate: every stage `ci.sh --list` prints is run by exactly one
// `./ci.sh <stage>` step of the GitHub workflow, no step names a stage
// ci.sh lacks, and the workflow runs no go test/run/build/vet of its own.
func TestCIStagesMatchWorkflow(t *testing.T) {
	out, err := exec.Command("sh", "ci.sh", "--list").Output()
	if err != nil {
		t.Fatalf("ci.sh --list: %v", err)
	}
	stages := strings.Fields(string(out))
	if len(stages) == 0 {
		t.Fatal("ci.sh --list printed no stages")
	}
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]int{}
	step := regexp.MustCompile(`\./ci\.sh\s+([^}#\n]*)`)
	goCmd := regexp.MustCompile(`\bgo\s+(test|run|build|vet)\b`)
	for i, line := range strings.Split(string(workflow), "\n") {
		if goCmd.MatchString(line) {
			t.Errorf("ci.yml:%d runs go itself (%q); make it a ci.sh stage", i+1, strings.TrimSpace(line))
		}
		if m := step.FindStringSubmatch(line); m != nil {
			for _, s := range strings.Fields(m[1]) {
				runs[s]++
			}
		}
	}
	for _, s := range stages {
		if n := runs[s]; n != 1 {
			t.Errorf("stage %q is run by %d ci.yml steps, want 1", s, n)
		}
		delete(runs, s)
	}
	for s := range runs {
		t.Errorf("ci.yml runs unknown stage %q", s)
	}
}
