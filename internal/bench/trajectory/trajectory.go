// Package trajectory records per-kernel benchmark results into a
// committed, append-only history (BENCH_kernels.json at the repo root),
// so the raw-speed claims of each optimization pass stay measurable: a
// regression against the last committed entry on the same host class is
// a test failure, not a code-review guess.
//
// Entries are appended by `unizk-bench -kernels`; the env-gated
// regression test in this package re-measures the current tree and
// compares against the last committed entry. Host classes — (GOARCH,
// CPU count, active SIMD backend) — keep numbers from different machines
// out of each other's baselines.
package trajectory

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"unizk/internal/poseidon"
)

// Result is one kernel's measurement.
type Result struct {
	Kernel      string  `json:"kernel"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// MaxNsPerOp is the slowest of the repeats NsPerOp is the minimum
	// of, so an entry carries its own spread; zero in entries recorded
	// before it existed.
	MaxNsPerOp float64 `json:"max_ns_per_op,omitempty"`
}

// Entry is one appended trajectory point: a full kernel sweep on one
// host at one commit.
type Entry struct {
	// Timestamp is RFC3339, supplied by the recording command.
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	HostCPUs  int    `json:"host_cpus"`
	// SIMD is the vector backend the hash and NTT kernels ran on
	// (poseidon.SIMD, which reads field.AVX512), empty for the portable
	// path.
	SIMD string `json:"simd,omitempty"`
	// Note is a free-form label for what changed, e.g. "PR 8 raw-speed pass".
	Note    string   `json:"note,omitempty"`
	Results []Result `json:"results"`
}

// File is the committed trajectory: entries in append order.
type File struct {
	Entries []Entry `json:"entries"`
}

// HostClass returns the entry's host class key, e.g. "amd64/2cpu" or
// "amd64/2cpu/avx512": an entry measured on a SIMD backend never gates
// a host without it, nor the reverse.
func (e Entry) HostClass() string {
	class := fmt.Sprintf("%s/%dcpu", e.GOARCH, e.HostCPUs)
	if e.SIMD != "" {
		class += "/" + e.SIMD
	}
	return class
}

// CurrentHostClass returns the host class of this process.
func CurrentHostClass() string { return NewEntry("", "", nil).HostClass() }

// Load reads a trajectory file; a missing file is an empty trajectory.
func Load(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &File{}, nil
	}
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("trajectory: parse %s: %w", path, err)
	}
	return &f, nil
}

// Save writes the trajectory back, indented for reviewable diffs.
func (f *File) Save(path string) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// LastForHost returns the most recent entry matching the given host
// class, or nil.
func (f *File) LastForHost(class string) *Entry {
	for i := len(f.Entries) - 1; i >= 0; i-- {
		if f.Entries[i].HostClass() == class {
			return &f.Entries[i]
		}
	}
	return nil
}

// NewEntry wraps a measurement sweep with this host's identity. The
// caller supplies the timestamp so recording stays testable.
func NewEntry(timestamp, note string, results []Result) Entry {
	return Entry{
		Timestamp: timestamp,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		HostCPUs:  runtime.NumCPU(),
		SIMD:      poseidon.SIMD(),
		Note:      note,
		Results:   results,
	}
}

// measureRepeats is how many independent testing.Benchmark samples each
// kernel gets; the recorded value is the minimum, and the maximum is
// kept beside it as the spread. Wall-clock noise on a shared host is
// strictly additive (scheduler preemption, cache pollution), so min-of-N
// is the low-variance estimator of the kernel's true cost — single
// samples jitter far past the 10% gate.
const measureRepeats = 3

// MeasureAll runs every registered kernel under testing.Benchmark,
// measureRepeats times each, and returns the per-kernel minima (with
// their maxima) in registry order. Benchtime is the stdlib default.
func MeasureAll() []Result {
	kernels := Kernels()
	out := make([]Result, 0, len(kernels))
	for _, k := range kernels {
		out = append(out, measureMin(k, measureRepeats))
	}
	return out
}

// MeasureKernel re-measures a single registered kernel with reps
// samples, returning the minimum. The second return is false when no
// kernel with that name is registered.
func MeasureKernel(name string, reps int) (Result, bool) {
	for _, k := range Kernels() {
		if k.Name == name {
			return measureMin(k, reps), true
		}
	}
	return Result{}, false
}

func measureMin(k Kernel, reps int) Result {
	best := Result{Kernel: k.Name}
	for rep := 0; rep < reps; rep++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			k.Bench(b)
		})
		ns, allocs := float64(r.NsPerOp()), float64(r.AllocsPerOp())
		if rep == 0 || ns < best.NsPerOp {
			best.NsPerOp = ns
		}
		best.MaxNsPerOp = max(best.MaxNsPerOp, ns)
		if rep == 0 || allocs < best.AllocsPerOp {
			best.AllocsPerOp = allocs
		}
	}
	return best
}

// Regression thresholds: a kernel regresses when it is both >10% slower
// AND slower by more than the absolute noise floor (so nanosecond-scale
// kernels don't flag on scheduler jitter). Allocations regress on >10%
// plus one whole allocation, since counts are near-integer stable.
const (
	nsRegressRatio   = 1.10
	nsRegressFloorNs = 25.0
	allocRegressFrac = 1.10
)

// Delta is one kernel's comparison between two entries.
type Delta struct {
	Kernel               string
	OldNs, NewNs         float64
	NewMaxNs             float64 // the candidate's slowest repeat, 0 if unrecorded
	OldAllocs, NewAllocs float64
	// Missing is true when the kernel exists in only one entry (renamed
	// or newly added) — reported, never a regression.
	Missing   bool
	NsRegress bool
	AlRegress bool
}

// Pct returns the signed ns/op change in percent (new vs old).
func (d Delta) Pct() float64 {
	if d.OldNs == 0 {
		return 0
	}
	return (d.NewNs - d.OldNs) / d.OldNs * 100
}

// Compare matches kernels by name between a baseline and a candidate
// sweep, computing benchstat-style deltas and regression flags.
func Compare(baseline, candidate []Result) []Delta {
	old := map[string]Result{}
	for _, r := range baseline {
		old[r.Kernel] = r
	}
	seen := map[string]bool{}
	var deltas []Delta
	for _, r := range candidate {
		seen[r.Kernel] = true
		o, ok := old[r.Kernel]
		if !ok {
			deltas = append(deltas, Delta{Kernel: r.Kernel, NewNs: r.NsPerOp, NewMaxNs: r.MaxNsPerOp, NewAllocs: r.AllocsPerOp, Missing: true})
			continue
		}
		d := Delta{
			Kernel: r.Kernel,
			OldNs:  o.NsPerOp, NewNs: r.NsPerOp, NewMaxNs: r.MaxNsPerOp,
			OldAllocs: o.AllocsPerOp, NewAllocs: r.AllocsPerOp,
		}
		d.NsRegress = r.NsPerOp > o.NsPerOp*nsRegressRatio && r.NsPerOp-o.NsPerOp > nsRegressFloorNs
		d.AlRegress = r.AllocsPerOp > o.AllocsPerOp*allocRegressFrac+1
		deltas = append(deltas, d)
	}
	for name, o := range old {
		if !seen[name] {
			deltas = append(deltas, Delta{Kernel: name, OldNs: o.NsPerOp, OldAllocs: o.AllocsPerOp, Missing: true})
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Kernel < deltas[j].Kernel })
	return deltas
}

// Regressions filters deltas down to failures.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if !d.Missing && (d.NsRegress || d.AlRegress) {
			out = append(out, d)
		}
	}
	return out
}

// FormatDeltas renders a benchstat-style table: kernel, old→new ns/op,
// the new sweep's slowest repeat, percent change, allocs, and a
// regression marker.
func FormatDeltas(deltas []Delta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %14s %14s %8s %16s\n", "kernel", "old ns/op", "new ns/op", "new max", "delta", "allocs old→new")
	for _, d := range deltas {
		newMax := "—"
		if d.NewMaxNs > 0 {
			newMax = fmt.Sprintf("%.0f", d.NewMaxNs)
		}
		if d.Missing {
			side := "new"
			if d.NewNs == 0 {
				side = "gone"
			}
			fmt.Fprintf(&b, "%-28s %14s %14.0f %14s %8s %16s\n", d.Kernel, "—", d.NewNs, newMax, side, "")
			continue
		}
		mark := ""
		if d.NsRegress || d.AlRegress {
			mark = "  REGRESSION"
		}
		fmt.Fprintf(&b, "%-28s %14.0f %14.0f %14s %+7.1f%% %9.0f→%-6.0f%s\n",
			d.Kernel, d.OldNs, d.NewNs, newMax, d.Pct(), d.OldAllocs, d.NewAllocs, mark)
	}
	return b.String()
}
