// Package bench regenerates every table and figure of the paper's
// evaluation (§7). Each generator returns a formatted report comparing
// the paper's published values with the values measured here: the CPU
// baseline is the measured Go prover, the UniZK numbers come from the
// cycle simulator running the recorded kernel graph, and the GPU/PipeZK
// columns come from the models in internal/baseline.
//
// Workloads are scaled down relative to the paper (2^11–2^13 rows instead
// of 2^20+) so a full run finishes in minutes; every report records the
// scale used. Absolute times therefore differ from the paper; the claims
// under reproduction are the shapes — who wins, by roughly what factor,
// and where the bottlenecks sit (see DESIGN.md §4).
package bench

import (
	"bytes"
	"encoding"
	"fmt"
	"strings"
	"sync"
	"time"

	"unizk/internal/core"
	"unizk/internal/fri"
	"unizk/internal/plonk"
	"unizk/internal/stark"
	"unizk/internal/trace"
	"unizk/internal/workloads"
)

// Options controls experiment scale.
type Options struct {
	// LogRows is the Plonk workload size (2^LogRows gate rows).
	LogRows int
	// StarkLogN is the Starky trace length for Tables 5 and 6.
	StarkLogN int
	// PlonkCfg is the FRI configuration for Plonky2-style proofs.
	PlonkCfg fri.Config
	// StarkCfg is the FRI configuration for Starky base proofs.
	StarkCfg fri.Config
	// Chip is the simulated UniZK configuration.
	Chip core.Config
}

// DefaultOptions returns the standard benchmark scale: Plonky2-like
// parameters (blowup 8, 28 queries) with reduced grinding so that
// proof-of-work does not dominate at small scales.
func DefaultOptions() Options {
	p := fri.PlonkyConfig()
	p.ProofOfWorkBits = 10
	s := fri.StarkyConfig()
	s.ProofOfWorkBits = 10
	s.NumQueries = 42
	return Options{
		LogRows:   11,
		StarkLogN: 12,
		PlonkCfg:  p,
		StarkCfg:  s,
		Chip:      core.DefaultConfig(),
	}
}

// Report is one regenerated table or figure.
type Report struct {
	ID    string // e.g. "Table 3"; set from the registry
	Title string
	Text  string // rendered table
}

// reports is the paper's evaluation (§7) in paper order, then the
// ablation study: every consumer — All, unizk-bench -only and the
// Reports benchmark — iterates this one list.
var reports = []struct {
	id  string
	gen func(*Runner) (Report, error)
}{
	{"Table 1", (*Runner).table1},
	{"Table 2", (*Runner).table2},
	{"Table 3", (*Runner).table3},
	{"Figure 8", (*Runner).figure8},
	{"Figure 9", (*Runner).figure9},
	{"Table 4", (*Runner).table4},
	{"Figure 10", (*Runner).figure10},
	{"Table 5", (*Runner).table5},
	{"Table 6", (*Runner).table6},
	{"Ablation", (*Runner).ablation},
}

// IDs returns the report IDs in paper order.
func IDs() []string {
	ids := make([]string, len(reports))
	for i, rep := range reports {
		ids[i] = rep.id
	}
	return ids
}

// Generate runs the one generator of the report with the given ID, so
// only the proofs that report reads are made.
func (r *Runner) Generate(id string) (Report, error) {
	for _, rep := range reports {
		if rep.id == id {
			out, err := rep.gen(r)
			out.ID = id
			return out, err
		}
	}
	return Report{}, fmt.Errorf("bench: no report %q", id)
}

// All runs every generator in paper order.
func (r *Runner) All() ([]Report, error) {
	out := make([]Report, len(reports))
	for i, rep := range reports {
		var err error
		if out[i], err = r.Generate(rep.id); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Runner memoizes workload runs so the generators share proving work.
type Runner struct {
	Opts Options

	mu   sync.Mutex
	runs map[string]*Run
}

// NewRunner returns a runner for the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{Opts: opts, runs: make(map[string]*Run)}
}

// Run is one measured proof generation, Plonky2 or Starky, with the
// simulated UniZK result for its kernel graph.
type Run struct {
	CPUTotal  time.Duration
	CPUTimes  [trace.NumKinds]time.Duration
	Nodes     []trace.Node
	ProofSize int
	Sim       *core.Result
}

// Plonk returns the memoized run for a Table 3 workload.
func (r *Runner) Plonk(name string) (*Run, error) {
	return r.plonkAt(name, r.Opts.LogRows)
}

// PlonkRecursive returns the memoized run for the recursion stand-in
// circuit (Table 5).
func (r *Runner) PlonkRecursive() (*Run, error) {
	return r.plonkAt("Recursive", 12)
}

func (r *Runner) plonkAt(name string, logRows int) (*Run, error) {
	return r.memo(fmt.Sprintf("%s@%d", name, logRows), func() (*Run, error) {
		w := workloads.RecursionWorkload()
		if name != "Recursive" {
			var err error
			if w, err = workloads.ByName(name); err != nil {
				return nil, err
			}
		}
		circuit, wit, pub, err := w.Build(logRows, r.Opts.PlonkCfg)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		return measure(r.Opts.Chip,
			func(rec *trace.Recorder) (*plonk.Proof, error) { return circuit.Prove(wit, rec) },
			func(p *plonk.Proof) error { return plonk.Verify(circuit.VerificationKey(), pub, p) })
	})
}

// Stark returns the memoized Starky base-proof run for a workload.
func (r *Runner) Stark(name string) (*Run, error) {
	return r.memo("stark "+name, func() (*Run, error) {
		w, err := workloads.StarkByName(name)
		if err != nil {
			return nil, err
		}
		s, cols, err := w.Build(r.Opts.StarkLogN, r.Opts.StarkCfg)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		return measure(r.Opts.Chip,
			func(rec *trace.Recorder) (*stark.Proof, error) { return s.Prove(cols, rec) },
			s.Verify)
	})
}

// memo returns the run recorded under key, measuring it on first use.
func (r *Runner) memo(key string, newRun func() (*Run, error)) (*Run, error) {
	r.mu.Lock()
	run, ok := r.runs[key]
	r.mu.Unlock()
	if ok {
		return run, nil
	}
	run, err := newRun()
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", key, err)
	}
	r.mu.Lock()
	r.runs[key] = run
	r.mu.Unlock()
	return run, nil
}

// measure proves once under a kernel recorder, verifies the proof, and
// returns its times, kernel graph and wire size with the simulated
// UniZK result for that graph.
func measure[P encoding.BinaryMarshaler](chip core.Config, prove func(*trace.Recorder) (P, error), verify func(P) error) (*Run, error) {
	rec := trace.New()
	start := time.Now()
	proof, err := prove(rec)
	elapsed := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("prove: %w", err)
	}
	if err := verify(proof); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	data, err := proof.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("encode proof: %w", err)
	}
	nodes := rec.Nodes()
	return &Run{
		CPUTotal:  elapsed,
		CPUTimes:  rec.CPUTime(),
		Nodes:     nodes,
		ProofSize: len(data),
		Sim:       core.Simulate(nodes, chip),
	}, nil
}

// cpuClassSeconds maps measured kernel times onto the simulator's three
// evaluation classes.
func cpuClassSeconds(times [trace.NumKinds]time.Duration) [core.NumClasses]float64 {
	var out [core.NumClasses]float64
	out[core.ClassNTT] = times[trace.NTT].Seconds()
	out[core.ClassPoly] = times[trace.VecOp].Seconds() + times[trace.PartialProd].Seconds()
	out[core.ClassHash] = times[trace.MerkleTree].Seconds() + times[trace.Hash].Seconds()
	return out
}

// table is a minimal fixed-width text table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b bytes.Buffer
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

func pct(x float64) string   { return fmt.Sprintf("%.1f%%", 100*x) }
func secs(s float64) string  { return fmt.Sprintf("%.4gs", s) }
func times(x float64) string { return fmt.Sprintf("%.1fx", x) }
func msecs(d time.Duration) string {
	return fmt.Sprintf("%.3gms", float64(d)/float64(time.Millisecond))
}

// fmtKB formats a byte count in kB.
func fmtKB(n int) string { return fmt.Sprintf("%dkB", n/1024) }
