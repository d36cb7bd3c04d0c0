package trajectory

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func res(name string, ns, allocs float64) Result {
	return Result{Kernel: name, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := []Result{
		res("a", 1000, 10),
		res("b", 100000, 0),
		res("tiny", 8, 0),
		res("gone", 50, 1),
	}
	cur := []Result{
		res("a", 1200, 10),    // +20% and > floor: ns regression
		res("b", 105000, 0),   // +5%: fine
		res("tiny", 30, 0),    // +275% but under the 25ns floor: fine
		res("fresh", 1, 0),    // new kernel: reported, not a regression
		res("a2", 0, 0),       // placeholder to keep sort stable
	}
	deltas := Compare(base, cur)
	regs := Regressions(deltas)
	if len(regs) != 1 || regs[0].Kernel != "a" {
		t.Fatalf("want exactly kernel a to regress, got %+v", regs)
	}
	var missing int
	for _, d := range deltas {
		if d.Missing {
			missing++
		}
	}
	if missing != 3 { // fresh, a2 (new) and gone (removed)
		t.Fatalf("want 3 missing-side deltas, got %d: %+v", missing, deltas)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	base := []Result{res("k", 1000, 4)}
	fine := Compare(base, []Result{res("k", 1000, 5)})     // +1 alloc: within slack
	bad := Compare(base, []Result{res("k", 1000, 6)})      // +50% and >1: regression
	zeroOK := Compare([]Result{res("z", 10, 0)}, []Result{res("z", 10, 1)})
	if len(Regressions(fine)) != 0 {
		t.Fatalf("one extra alloc should be slack: %+v", fine)
	}
	if len(Regressions(bad)) != 1 {
		t.Fatalf("+2 allocs on 4 should regress: %+v", bad)
	}
	if len(Regressions(zeroOK)) != 0 {
		t.Fatalf("0→1 allocs is within the +1 slack: %+v", zeroOK)
	}
}

func TestFileRoundTripAndLastForHost(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_kernels.json")

	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != 0 {
		t.Fatalf("missing file should load empty, got %+v", f)
	}

	e1 := NewEntry("2026-08-07T00:00:00Z", "first", []Result{res("k", 100, 1)})
	e2 := NewEntry("2026-08-07T01:00:00Z", "second", []Result{res("k", 90, 1)})
	other := e1
	other.GOARCH = "other-arch"
	f.Entries = append(f.Entries, e1, other, e2)
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}

	g, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Entries) != 3 {
		t.Fatalf("want 3 entries, got %d", len(g.Entries))
	}
	last := g.LastForHost(CurrentHostClass())
	if last == nil || last.Note != "second" {
		t.Fatalf("LastForHost should return the newest same-class entry, got %+v", last)
	}
	if g.LastForHost("missing-class/0cpu") != nil {
		t.Fatal("unknown host class should have no baseline")
	}
}

func TestKernelRegistry(t *testing.T) {
	ks := Kernels()
	if len(ks) < 10 {
		t.Fatalf("registry unexpectedly small: %d", len(ks))
	}
	seen := map[string]bool{}
	for _, k := range ks {
		if k.Name == "" || k.Bench == nil {
			t.Fatalf("malformed kernel %+v", k)
		}
		if seen[k.Name] {
			t.Fatalf("duplicate kernel name %q", k.Name)
		}
		seen[k.Name] = true
	}
	for _, want := range []string{
		"field/mul/4096", "field/inverse",
		"ntt/forwardNN/2^12", "ntt/inverseNN/2^18", "ntt/cosetForwardNR/2^15",
		"merkle/commit/2^12", "fri/fold/2^15",
		"plonk/prove/fib-40", "stark/prove/fib-2^10",
	} {
		if !seen[want] {
			t.Fatalf("tracked kernel %q missing from registry", want)
		}
	}
}

// TestTrajectoryRegression is the CI gate: with UNIZK_BENCH_ENFORCE=1 it
// re-measures every kernel on the current tree and fails if any kernel
// regresses >10% (past the absolute noise floor) against the last
// committed BENCH_kernels.json entry for this host class. Off by
// default — wall-clock measurements on shared or unknown runners are
// noise, so the gate self-skips unless explicitly enforced and a
// baseline for this exact host class exists.
func TestTrajectoryRegression(t *testing.T) {
	if os.Getenv("UNIZK_BENCH_ENFORCE") != "1" {
		t.Skip("set UNIZK_BENCH_ENFORCE=1 to enforce the kernel trajectory")
	}
	f, err := Load(filepath.Join("..", "..", "..", "BENCH_kernels.json"))
	if err != nil {
		t.Fatal(err)
	}
	base := f.LastForHost(CurrentHostClass())
	if base == nil {
		t.Skipf("no committed baseline for host class %s", CurrentHostClass())
	}
	cur := MeasureAll()
	deltas := Compare(base.Results, cur)

	// Targeted retry: min-of-N absorbs scheduler jitter but not a noisy
	// neighbor squatting on the cache for the whole sweep. A kernel that
	// only looked slow because of interference clears the gate on a fresh
	// re-measure; a real regression reproduces.
	if regs := Regressions(deltas); len(regs) > 0 {
		flagged := map[string]bool{}
		for _, d := range regs {
			flagged[d.Kernel] = true
		}
		for i := range cur {
			if !flagged[cur[i].Kernel] {
				continue
			}
			again, ok := MeasureKernel(cur[i].Kernel, 3)
			if !ok {
				continue
			}
			if again.NsPerOp < cur[i].NsPerOp {
				cur[i].NsPerOp = again.NsPerOp
			}
			if again.AllocsPerOp < cur[i].AllocsPerOp {
				cur[i].AllocsPerOp = again.AllocsPerOp
			}
		}
		deltas = Compare(base.Results, cur)
	}

	t.Logf("trajectory vs %s (%s):\n%s", base.Timestamp, base.Note, FormatDeltas(deltas))
	for _, d := range Regressions(deltas) {
		t.Errorf("%s regressed: %.0f → %.0f ns/op (%+.1f%%), allocs %.0f → %.0f",
			d.Kernel, d.OldNs, d.NewNs, d.Pct(), d.OldAllocs, d.NewAllocs)
	}
}

// TestGrindKernelTranscript pins the fri/grind/16-bit kernel's work: a
// change to the transcript or to the search would silently change what
// the row measures.
func TestGrindKernelTranscript(t *testing.T) {
	w, tries, err := grindTranscript().Grind(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if w != 34775 || tries != 34776 {
		t.Fatalf("grind kernel transcript: witness %d, %d tries; pinned 34775, 34776", w, tries)
	}
}
