package bench

import (
	"fmt"

	"unizk/internal/core"
)

// figure8 reproduces the UniZK execution-time breakdown by kernel type:
// after acceleration the element-wise polynomial kernels dominate (§7.1).
func (r *Runner) figure8() (Report, error) {
	t := &table{header: []string{"Application", "NTT", "Poly", "Hash"}}
	for _, name := range table3Workloads {
		run, err := r.Plonk(name)
		if err != nil {
			return Report{}, err
		}
		fr := run.Sim.BreakdownFractions()
		t.add(name,
			pct(fr[core.ClassNTT]),
			pct(fr[core.ClassPoly]),
			pct(fr[core.ClassHash]))
	}
	return Report{
		Title: "UniZK execution time breakdown by kernel type",
		Text:  t.String(),
	}, nil
}

// figure9 reproduces the per-kernel-type speedups of UniZK over the CPU:
// hash > NTT > poly (paper: 92x-191x for NTT/hash, 20x-92x for poly).
func (r *Runner) figure9() (Report, error) {
	t := &table{header: []string{"Application", "NTT", "Poly", "Hash"}}
	for _, name := range table3Workloads {
		run, err := r.Plonk(name)
		if err != nil {
			return Report{}, err
		}
		cpu := cpuClassSeconds(run.CPUTimes)
		row := []string{name}
		for c := core.Class(0); c < core.NumClasses; c++ {
			sim := run.Sim.ClassSeconds(c)
			if sim <= 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, times(cpu[c]/sim))
		}
		t.add(row...)
	}
	return Report{
		Title: "Speedups by kernel type, UniZK over the CPU baseline",
		Text:  t.String(),
	}, nil
}

// figure10Sweep holds the Figure 10 axis values relative to the default.
var figure10Sweep = []float64{0.25, 0.5, 1, 2, 4}

// figure10 reproduces the design space exploration on MVM: normalized
// performance as the scratchpad size, VSA count and memory bandwidth are
// scaled around the default configuration.
func (r *Runner) figure10() (Report, error) {
	run, err := r.Plonk("MVM")
	if err != nil {
		return Report{}, err
	}
	base := core.Simulate(run.Nodes, r.Opts.Chip)

	t := &table{header: []string{"Knob", "Kernel", "0.25x", "0.5x", "1x", "2x", "4x"}}
	sweep := func(knob string, configure func(f float64) core.Config) {
		results := make([]*core.Result, len(figure10Sweep))
		for i, f := range figure10Sweep {
			results[i] = core.Simulate(run.Nodes, configure(f))
		}
		// Total performance plus the per-kernel series the paper plots.
		row := []string{knob, "Total"}
		for _, res := range results {
			row = append(row, fmt.Sprintf("%.2f",
				float64(base.TotalCycles)/float64(res.TotalCycles)))
		}
		t.add(row...)
		for c := core.Class(0); c < core.NumClasses; c++ {
			row := []string{"", c.String()}
			for _, res := range results {
				row = append(row, fmt.Sprintf("%.2f",
					float64(base.Cycles[c])/float64(res.Cycles[c])))
			}
			t.add(row...)
		}
	}

	sweep("Scratchpad", func(f float64) core.Config {
		return r.Opts.Chip.WithScratchpad(int64(float64(r.Opts.Chip.ScratchpadBytes) * f))
	})
	sweep("VSAs", func(f float64) core.Config {
		n := int(float64(r.Opts.Chip.NumVSAs) * f)
		if n < 1 {
			n = 1
		}
		return r.Opts.Chip.WithVSAs(n)
	})
	sweep("Bandwidth", func(f float64) core.Config {
		return r.Opts.Chip.WithBandwidth(f)
	})

	return Report{
		Title: "Design space exploration on MVM (performance normalized to the default config)",
		Text:  t.String(),
	}, nil
}

// ablation quantifies the §4 hardware features by disabling each and
// re-simulating the Fibonacci trace — the design-choice experiments
// DESIGN.md §4 calls out (not a paper table; the paper asserts these
// features qualitatively).
func (r *Runner) ablation() (Report, error) {
	run, err := r.Plonk("Fibonacci")
	if err != nil {
		return Report{}, err
	}
	base := core.Simulate(run.Nodes, r.Opts.Chip)

	t := &table{header: []string{"Disabled feature", "Slowdown",
		"NTT", "Poly", "Hash"}}
	cases := []struct {
		name string
		ab   core.Ablation
	}{
		{"reverse links (§5.2)", core.Ablation{NoReverseLinks: true}},
		{"transpose buffer (§4)", core.Ablation{NoTransposeUnit: true}},
		{"twiddle generator (§5.1)", core.Ablation{NoTwiddleGen: true}},
		{"all three", core.Ablation{
			NoReverseLinks: true, NoTransposeUnit: true, NoTwiddleGen: true}},
	}
	classRatio := func(res *core.Result, c core.Class) string {
		if base.Cycles[c] == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", float64(res.Cycles[c])/float64(base.Cycles[c]))
	}
	for _, cse := range cases {
		res := core.Simulate(run.Nodes, r.Opts.Chip.WithAblation(cse.ab))
		t.add(cse.name,
			fmt.Sprintf("%.2fx", float64(res.TotalCycles)/float64(base.TotalCycles)),
			classRatio(res, core.ClassNTT),
			classRatio(res, core.ClassPoly),
			classRatio(res, core.ClassHash))
	}
	return Report{
		Title: "Contribution of individual hardware features (Fibonacci trace)",
		Text:  t.String(),
	}, nil
}
