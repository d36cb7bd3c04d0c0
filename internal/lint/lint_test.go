package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"unizk/internal/lint"
	"unizk/internal/lint/analysistest"
)

func TestFieldCanon(t *testing.T) {
	analysistest.Run(t, "testdata", lint.FieldCanon, "fieldcanon")
}

func TestWireCheck(t *testing.T) {
	analysistest.Run(t, "testdata", lint.WireCheck, "wirecheck")
}

func TestProofErrFlow(t *testing.T) {
	analysistest.Run(t, "testdata", lint.ProofErrFlow, "prooferrflow")
}

func TestCtxPoll(t *testing.T) {
	analysistest.Run(t, "testdata", lint.CtxPoll, "ctxpoll")
}

func TestNoDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", lint.NoDeterminism, "nodeterminism")
}

// TestLockGuard covers the guardedby simulation edge cases the issue
// calls out: deferred Unlock, TryLock consulted as an if condition,
// the RWMutex read-vs-write distinction, lock state not leaking out of
// branches, and holds-annotated callees checked at their call sites.
func TestLockGuard(t *testing.T) {
	analysistest.Run(t, "testdata", lint.LockGuard, "lockguard")
}

// TestGoroutineLife includes the goroutine-inside-parallel.Pool-callback
// case: the pool joins its own workers, not what a callback launches.
func TestGoroutineLife(t *testing.T) {
	analysistest.Run(t, "testdata", lint.GoroutineLife, "goroutinelife")
}

func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, "testdata", lint.AtomicMix, "atomicmix")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", lint.HotAlloc, "hotalloc")
}

// TestDirectives exercises the //unizklint:allow machinery: a valid
// directive suppresses a finding, and malformed directives (unknown verb,
// unregistered analyzer, missing reason) are findings themselves.
func TestDirectives(t *testing.T) {
	analysistest.Run(t, "testdata", lint.FieldCanon, "directive")
}

// TestRepoClean is the tier-1 gate for the tree itself: the full analyzer
// suite must report nothing on the module. This is the same check ci.sh
// runs via cmd/unizklint.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(l, paths, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d.String())
	}
}

// TestLoaderHonoursBuildConstraints loads a package whose two variants
// declare the same function under opposite build tags, as a package with
// an assembly backend and a purego fallback does: only the variant
// `go build` compiles is type-checked.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":     "module tagged\n\ngo 1.22\n",
		"fast.go":    "//go:build !purego\n\npackage tagged\n\nfunc f() int { return 1 }\n",
		"generic.go": "//go:build purego\n\npackage tagged\n\nfunc f() int { return 2 }\n",
		"use.go":     "package tagged\n\nvar X = f()\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.Load("tagged")
	if err != nil {
		t.Fatalf("loading a package with build-tagged variants: %v", err)
	}
	if len(p.Files) != 2 {
		t.Fatalf("type-checked %d files, want 2 (fast.go, use.go)", len(p.Files))
	}
}
