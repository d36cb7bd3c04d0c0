// Command benchmark is the repository's benchmark: two direct-prove
// workloads and two served-job workloads, measured from outside through
// the layers' public functions, with a traced mode that attributes the
// time to layers. README.md describes the metrics, the workloads and how
// they interact; ../BENCHMARK.json names them for the pipeline.
//
// Run it through run.sh, which builds this program and the server
// binaries it drives:
//
//	benchmark/run.sh --workload prove-merkle --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
	binDir   string
	appendTo string
}

func (c *config) outPath(name string) string { return filepath.Join(c.outDir, name) }
func (c *config) bin(name string) string     { return filepath.Join(c.binDir, name) }

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: prove-merkle, prove-grind, serve-cold or serve-hot")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs (instance order, draws, arrival times)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics, 0 prints the end-to-end metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "run the workload's shape on 2^5 instances")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for traces, logs, journals and the last result")
	flag.StringVar(&cfg.binDir, "bin", "", "directory holding unizk-server and unizk-cluster (run.sh builds them)")
	flag.StringVar(&cfg.appendTo, "append", "", "also append the result to this result set (one JSON object per line)")
	agree := flag.Bool("agree", false, "compare two result sets, given as arguments, under BENCHMARK.json's bounds")
	bounds := flag.String("bounds", "../BENCHMARK.json", "BENCHMARK.json for -agree")
	updatePins := flag.Bool("update-pins", false, "prove every catalogue instance and rewrite pins.json")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case *agree:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-agree takes two result sets")
		} else {
			err = agreeSets(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		}
	case *updatePins:
		err = updatePinsFile(context.Background())
	default:
		var ok bool
		if ok, err = run(context.Background(), &cfg); err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// run measures one workload and prints the result as the last line of
// standard output. It reports whether every proof was correct.
func run(ctx context.Context, cfg *config) (bool, error) {
	set := workloads
	if cfg.smoke {
		set = smokeWorkloads
	}
	w, err := workloadByName(set, cfg.workload)
	if err != nil {
		return false, err
	}
	if cfg.seconds <= 0 {
		return false, fmt.Errorf("-seconds must be positive")
	}
	pins, err := loadPins()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return false, err
	}

	var out *outcome
	if w.Served {
		out, err = runServed(ctx, cfg, w, pins)
	} else {
		out, err = runDirect(ctx, cfg, w, pins)
	}
	if err != nil {
		return false, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := runProbes(ctx, cfg, out.m, out.provers); err != nil {
			return false, err
		}
		tries := 0
		for _, in := range w.Instances {
			tries += pins[in.String()].Tries
		}
		if got := out.m["fri.grind_tries"]; got != float64(tries) {
			fmt.Fprintf(os.Stderr, "benchmark: %.0f grind tries, pins say %d: run is not comparable\n", got, tries)
			out.comparable = false
		}
		comparable := 0.0
		if out.comparable {
			comparable = 1
		}
		out.m.set("catalogue.comparable", comparable)
		out.m.set("loadgen.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	}
	vals, err := out.m.render(defs, cfg.trace)
	if err != nil {
		return false, err
	}
	rec := &record{Workload: w.Name, Seed: cfg.seed, Seconds: int(cfg.seconds), Trace: cfg.trace,
		Comparable: out.comparable, Valid: out.valid,
		result: result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: vals}}
	last := cfg.outPath("last-" + w.Name + ".json")
	if err := os.Remove(last); err != nil && !os.IsNotExist(err) {
		return false, err
	}
	if err := appendRecord(last, rec); err != nil {
		return false, err
	}
	if cfg.appendTo != "" {
		if err := appendRecord(cfg.appendTo, rec); err != nil {
			return false, err
		}
	}
	if cfg.trace {
		printContrasts(w.Name, out.m)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return out.correct, nil
}

// printContrasts prints, on standard error, the shares that make a
// workload what its name says, so a traced run shows whether they hold.
func printContrasts(name string, m metrics) {
	prove := m["plonk.prove_s"] + m["stark.prove_s"]
	if prove > 0 {
		fmt.Fprintf(os.Stderr, "%s: of direct prove time, merkle %.0f%%, grind %.0f%%, ntt %.0f%%, poly %.0f%%\n", name,
			100*m["merkle.busy_s"]/prove, 100*m["fri.grind_s"]/prove, 100*m["ntt.busy_s"]/prove,
			100*(m["poly.vecop_s"]+m["poly.partial_products_s"]+m["poly.transpose_s"])/prove)
	}
	fmt.Fprintf(os.Stderr, "%s: proofcache.hit_ratio %.2f, server.prove_invocations %.0f, parallel.speedup %.2f, trace.overhead_pct %.1f\n",
		name, m["proofcache.hit_ratio"], m["server.prove_invocations"], m["parallel.speedup"], m["trace.overhead_pct"])
}

// updatePinsFile re-records every instance's grind tries and proof hash
// from the tree the program was built from.
func updatePinsFile(ctx context.Context) error {
	pins := map[string]pin{}
	for _, in := range allInstances(workloads, smokeWorkloads) {
		p, err := compileInstance(in)
		if err != nil {
			return err
		}
		if err := p.buildRaw(); err != nil {
			return err
		}
		ps, err := tracedPass(ctx, []*prover{p})
		if err != nil {
			return err
		}
		res, _, err := p.prove(ctx)
		if err != nil {
			return err
		}
		if !p.matches(res) {
			return fmt.Errorf("%s: Job.Prove and ProveContext proofs differ", in)
		}
		pins[in.String()] = pin{Tries: ps[0].tries, SHA256: shaHex(p.refSHA)}
		fmt.Fprintf(os.Stderr, "%-28s %7d tries  %s\n", in, ps[0].tries, shaHex(p.refSHA)[:16])
	}
	return writePins(pins)
}
