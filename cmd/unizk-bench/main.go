// Command unizk-bench regenerates the paper's tables and figures (the
// experiment workflow of the paper's artifact appendix). It measures the
// CPU baseline by running the Go provers, simulates UniZK on the recorded
// kernel graphs, and prints each table side by side with the paper's
// published values.
//
// Usage:
//
//	unizk-bench [-rows 11] [-stark 12] [-only "Table 3"] [-out EXPERIMENTS.md]
//	unizk-bench -kernels [-note "what changed"] [-trajectory BENCH_kernels.json]
//
// The -kernels mode runs the tracked per-kernel benchmark registry
// (internal/bench/trajectory), prints a benchstat-style delta against
// the last committed entry for this host class, and appends the new
// sweep to the trajectory file.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"unizk/internal/bench"
	"unizk/internal/bench/trajectory"
)

func main() {
	rows := flag.Int("rows", 11, "log2 of Plonk workload rows (paper: 20+)")
	starkN := flag.Int("stark", 12, "log2 of Starky trace rows")
	only := flag.String("only", "", "generate only the named report (e.g. 'Table 3')")
	out := flag.String("out", "", "also append the reports to this file")
	kernels := flag.Bool("kernels", false, "record a per-kernel trajectory entry instead of the paper tables")
	note := flag.String("note", "", "free-form label stored with the -kernels entry")
	trajPath := flag.String("trajectory", "BENCH_kernels.json", "trajectory file for -kernels (repo-root relative)")
	flag.Parse()

	if *kernels {
		if err := recordKernels(*trajPath, *note); err != nil {
			fmt.Fprintln(os.Stderr, "unizk-bench:", err)
			os.Exit(1)
		}
		return
	}

	if ids := bench.IDs(); *only != "" && !slices.Contains(ids, *only) {
		fmt.Fprintf(os.Stderr, "unizk-bench: -only %q names no report; reports: %s\n", *only, strings.Join(ids, ", "))
		os.Exit(2)
	}

	opts := bench.DefaultOptions()
	opts.LogRows = *rows
	opts.StarkLogN = *starkN
	runner := bench.NewRunner(opts)

	start := time.Now()
	var reports []bench.Report
	var err error
	if *only == "" {
		reports, err = runner.All()
	} else {
		var rep bench.Report
		rep, err = runner.Generate(*only)
		reports = []bench.Report{rep}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "unizk-bench:", err)
		os.Exit(1)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "UniZK experiment reproduction — 2^%d Plonk rows, 2^%d Starky rows (%.1fs total)\n\n",
		*rows, *starkN, time.Since(start).Seconds())
	for _, rep := range reports {
		fmt.Fprintf(&b, "== %s: %s ==\n\n%s\n", rep.ID, rep.Title, rep.Text)
	}
	fmt.Print(b.String())

	if *out != "" {
		f, err := os.OpenFile(*out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "unizk-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if _, err := f.WriteString(b.String()); err != nil {
			fmt.Fprintln(os.Stderr, "unizk-bench:", err)
			os.Exit(1)
		}
	}
}

// recordKernels measures every tracked kernel, prints the delta against
// the last committed entry for this host class, and appends the sweep
// to the trajectory file. Regressions are printed (marked REGRESSION)
// but do not fail the command — the append-only history is the point;
// enforcement lives in the env-gated trajectory test.
func recordKernels(path, note string) error {
	f, err := trajectory.Load(path)
	if err != nil {
		return err
	}
	class := trajectory.CurrentHostClass()
	fmt.Printf("measuring %d kernels on %s (this takes a minute)...\n",
		len(trajectory.Kernels()), class)

	start := time.Now()
	results := trajectory.MeasureAll()
	fmt.Printf("measured in %.1fs\n\n", time.Since(start).Seconds())

	if base := f.LastForHost(class); base != nil {
		deltas := trajectory.Compare(base.Results, results)
		fmt.Printf("vs %s (%s):\n%s\n", base.Timestamp, base.Note, trajectory.FormatDeltas(deltas))
	} else {
		fmt.Printf("no prior entry for host class %s — recording baseline\n\n", class)
		for _, r := range results {
			fmt.Printf("%-28s %14.0f ns/op %10.0f allocs/op\n", r.Kernel, r.NsPerOp, r.AllocsPerOp)
		}
		fmt.Println()
	}

	entry := trajectory.NewEntry(time.Now().UTC().Format(time.RFC3339), note, results)
	f.Entries = append(f.Entries, entry)
	if err := f.Save(path); err != nil {
		return err
	}
	fmt.Printf("appended entry %d to %s\n", len(f.Entries), path)
	return nil
}
