package bench

import (
	"fmt"

	"unizk/internal/baseline"
	"unizk/internal/core"
	"unizk/internal/trace"
)

// table3Workloads is the paper's application order.
var table3Workloads = []string{
	"Factorial", "Fibonacci", "ECDSA", "SHA-256", "Image Crop", "MVM",
}

// paperTable1 holds the paper's breakdown percentages for reference
// columns (Poly, NTT, Merkle, OtherHash, Transform).
var paperTable1 = map[string][5]float64{
	"Factorial":  {13.4, 21.8, 62.4, 0.0, 2.4},
	"Fibonacci":  {12.1, 20.0, 65.8, 0.1, 2.0},
	"ECDSA":      {24.9, 15.7, 57.2, 0.2, 2.0},
	"SHA-256":    {11.5, 19.0, 67.0, 0.0, 2.5},
	"Image Crop": {11.5, 17.1, 68.8, 0.3, 2.3},
	"MVM":        {13.7, 15.9, 65.7, 0.1, 4.6},
}

// table1 reproduces the CPU proof-generation time breakdown.
func (r *Runner) table1() (Report, error) {
	t := &table{header: []string{"Application", "Time",
		"Poly", "NTT", "Merkle", "OtherHash", "Transform",
		"(paper: Poly/NTT/Merkle)"}}
	for _, name := range table3Workloads {
		run, err := r.Plonk(name)
		if err != nil {
			return Report{}, err
		}
		times := run.CPUTimes
		total := run.CPUTotal.Seconds()
		frac := func(kinds ...trace.Kind) float64 {
			var s float64
			for _, k := range kinds {
				s += times[k].Seconds()
			}
			return s / total
		}
		p := paperTable1[name]
		t.add(name, secs(total),
			pct(frac(trace.VecOp, trace.PartialProd)),
			pct(frac(trace.NTT)),
			pct(frac(trace.MerkleTree)),
			pct(frac(trace.Hash)),
			pct(frac(trace.Transpose)),
			fmt.Sprintf("%.0f%%/%.0f%%/%.0f%%", p[0], p[1], p[2]))
	}
	return Report{
		Title: fmt.Sprintf("Plonky2 proof generation time breakdown (CPU, 2^%d rows)", r.Opts.LogRows),
		Text:  t.String(),
	}, nil
}

// paperTable2 holds the paper's area/power rows.
var paperTable2 = map[string][2]float64{
	"VSAs":                     {21.3, 58.0},
	"Scratchpad":               {5.0, 1.0},
	"Twiddle factor generator": {0.8, 2.6},
	"Transpose buffer":         {0.9, 3.1},
	"HBM PHYs":                 {29.8, 31.7},
	"Total":                    {57.8, 96.4},
}

// table2 reproduces the area and power breakdown.
func (r *Runner) table2() (Report, error) {
	t := &table{header: []string{"Component", "Area (mm^2)", "Power (W)",
		"Paper area", "Paper power"}}
	for _, row := range core.AreaPowerBreakdown(r.Opts.Chip) {
		p := paperTable2[row.Component]
		t.add(row.Component,
			fmt.Sprintf("%.1f", row.AreaMM2),
			fmt.Sprintf("%.1f", row.PowerW),
			fmt.Sprintf("%.1f", p[0]),
			fmt.Sprintf("%.1f", p[1]))
	}
	return Report{
		Title: "Area and power breakdown of UniZK",
		Text:  t.String(),
	}, nil
}

// paperTable3 holds the paper's speedups (GPU over CPU, UniZK over CPU).
var paperTable3 = map[string][2]float64{
	"Factorial":  {2.2, 70},
	"Fibonacci":  {4.6, 147},
	"ECDSA":      {3.6, 115},
	"SHA-256":    {2.1, 61},
	"Image Crop": {1.5, 64},
	"MVM":        {1.2, 124},
}

// table3 reproduces the end-to-end CPU/GPU/UniZK comparison.
func (r *Runner) table3() (Report, error) {
	t := &table{header: []string{"Application", "CPU", "GPU", "GPU-speedup",
		"UniZK", "UniZK-speedup", "(paper GPU/UniZK)"}}
	for _, name := range table3Workloads {
		run, err := r.Plonk(name)
		if err != nil {
			return Report{}, err
		}
		cpu := run.CPUTotal.Seconds()
		gpu := baseline.GPUTime(run.CPUTimes, run.Nodes).Seconds()
		unizk := run.Sim.Seconds()
		p := paperTable3[name]
		t.add(name, secs(cpu), secs(gpu), times(cpu/gpu),
			secs(unizk), times(cpu/unizk),
			fmt.Sprintf("%.1fx/%.0fx", p[0], p[1]))
	}
	return Report{
		Title: fmt.Sprintf("Overall performance, CPU vs GPU model vs simulated UniZK (Plonky2, 2^%d rows)",
			r.Opts.LogRows),
		Text: t.String(),
	}, nil
}

// paperTable4 holds the paper's utilization rows: NTT mem/VSA, Poly
// mem/VSA, Hash mem/VSA.
var paperTable4 = map[string][6]float64{
	"Factorial":  {47.6, 4.3, 15.7, 2.0, 20.6, 96.9},
	"Fibonacci":  {55.5, 5.0, 17.9, 5.8, 20.6, 96.7},
	"ECDSA":      {56.4, 5.0, 15.4, 9.2, 20.6, 96.1},
	"SHA-256":    {47.4, 4.3, 13.6, 1.9, 20.7, 97.2},
	"Image Crop": {54.0, 4.8, 13.5, 2.2, 20.7, 97.1},
	"MVM":        {53.0, 4.8, 24.5, 5.9, 21.7, 95.3},
}

// table4 reproduces the memory and VSA utilization breakdown.
func (r *Runner) table4() (Report, error) {
	t := &table{header: []string{"Application",
		"NTT-Mem", "NTT-VSA", "Poly-Mem", "Poly-VSA", "Hash-Mem", "Hash-VSA",
		"(paper NTT/Poly/Hash mem,VSA)"}}
	for _, name := range table3Workloads {
		run, err := r.Plonk(name)
		if err != nil {
			return Report{}, err
		}
		s := run.Sim
		p := paperTable4[name]
		t.add(name,
			pct(s.MemUtilization(core.ClassNTT)), pct(s.VSAUtilization(core.ClassNTT)),
			pct(s.MemUtilization(core.ClassPoly)), pct(s.VSAUtilization(core.ClassPoly)),
			pct(s.MemUtilization(core.ClassHash)), pct(s.VSAUtilization(core.ClassHash)),
			fmt.Sprintf("%.0f,%.0f/%.0f,%.0f/%.0f,%.0f",
				p[0], p[1], p[2], p[3], p[4], p[5]))
	}
	return Report{
		Title: "Memory and VSA utilization breakdown in UniZK",
		Text:  t.String(),
	}, nil
}

// table5Apps are the Starky-capable applications (paper §7.4).
var table5Apps = []string{"Factorial", "Fibonacci", "SHA-256"}

// table5 reproduces the Starky + Plonky2 two-stage comparison.
func (r *Runner) table5() (Report, error) {
	t := &table{header: []string{"Application", "Stage", "CPU",
		"UniZK", "Speedup", "Proof size"}}
	rec, err := r.PlonkRecursive()
	if err != nil {
		return Report{}, err
	}
	for _, name := range table5Apps {
		base, err := r.Stark(name)
		if err != nil {
			return Report{}, err
		}
		t.add(name, "Base", secs(base.CPUTotal.Seconds()),
			secs(base.Sim.Seconds()),
			times(base.CPUTotal.Seconds()/base.Sim.Seconds()),
			fmtKB(base.ProofSize))
		t.add("", "Recursive", secs(rec.CPUTotal.Seconds()),
			secs(rec.Sim.Seconds()),
			times(rec.CPUTotal.Seconds()/rec.Sim.Seconds()),
			fmtKB(rec.ProofSize))
	}
	return Report{
		Title: fmt.Sprintf("Starky (2^%d rows) + Plonky2 recursion: CPU vs simulated UniZK",
			r.Opts.StarkLogN),
		Text: t.String(),
	}, nil
}

// table6 reproduces the comparison against PipeZK/Groth16.
func (r *Runner) table6() (Report, error) {
	t := &table{header: []string{"Application", "Groth16-CPU(cited)",
		"Starky+Plonky2-CPU", "PipeZK(cited)", "UniZK",
		"PipeZK-speedup", "UniZK-speedup"}}
	rec, err := r.PlonkRecursive()
	if err != nil {
		return Report{}, err
	}
	var blockThroughputLine string
	for _, ref := range baseline.PipeZKReferences() {
		base, err := r.Stark(ref.App)
		if err != nil {
			return Report{}, err
		}
		cpu := base.CPUTotal.Seconds() + rec.CPUTotal.Seconds()
		unizk := base.Sim.Seconds() + rec.Sim.Seconds()
		t.add(ref.App,
			msecs(ref.Groth16CPU),
			secs(cpu),
			msecs(ref.PipeZKASIC),
			secs(unizk),
			times(ref.Groth16CPU.Seconds()/ref.PipeZKASIC.Seconds()),
			times(cpu/unizk))
		if ref.PipeZKBlocksSec > 0 {
			// Amortized throughput: one SHA-256-like block is 64 trace
			// rows; a 2^logN base proof covers 2^logN/64 blocks and the
			// recursion cost amortizes away (paper §7.5).
			blocks := float64(int64(1)<<r.Opts.StarkLogN) / 64
			perSec := blocks / base.Sim.Seconds()
			blockThroughputLine = fmt.Sprintf(
				"\nAmortized SHA-256 throughput: UniZK %.0f blocks/s vs PipeZK %.0f blocks/s -> %.0fx (paper: 840x)\n",
				perSec, ref.PipeZKBlocksSec, perSec/ref.PipeZKBlocksSec)
		}
	}
	return Report{
		Title: "UniZK (Starky+Plonky2) vs PipeZK (Groth16), single block",
		Text:  t.String() + blockThroughputLine,
	}, nil
}
