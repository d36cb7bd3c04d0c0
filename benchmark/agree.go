package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readSet reads a result set: one record per line.
func readSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series groups a set's values by (workload, metric). It refuses runs
// that are wrong, not comparable or not valid: their timings mean nothing.
func series(set []record, path string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, r := range set {
		if !r.Correct || !r.Comparable || !r.Valid || r.Failed > 0 {
			return nil, fmt.Errorf("%s: %s seed %d: correct=%v comparable=%v valid=%v failed=%d: refusing to compare",
				path, r.Workload, r.Seed, r.Correct, r.Comparable, r.Valid, r.Failed)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, nil
}

// agreeSets applies BENCHMARK.json's bounds to two result sets of the
// same code: for every end-to-end metric and workload, the second set's
// median may not be worse than the first's by more than the bound, neither
// set's interquartile spread may exceed the bound, and every exact metric
// must be identical throughout. It prints one row per pair and returns an
// error if any row fails.
func agreeSets(w io.Writer, boundsPath, pathA, pathB string) error {
	bf, err := readBenchmarkFile(boundsPath)
	if err != nil {
		return err
	}
	setA, err := readSet(pathA)
	if err != nil {
		return err
	}
	setB, err := readSet(pathB)
	if err != nil {
		return err
	}
	a, err := series(setA, pathA)
	if err != nil {
		return err
	}
	b, err := series(setB, pathB)
	if err != nil {
		return err
	}

	exact := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		exact[d.Name] = d.Exact
	}
	var names []string
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median_a", "median_b", "worse", "spread_a", "spread_b", "bound", "verdict")
	for _, wl := range names {
		for _, d := range bf.EndToEnd {
			xa, xb := a[wl][d.Name], b[wl][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue // traced-only workload rows carry no end-to-end metrics
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := relSpread(xa), relSpread(xb)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "DISAGREE"
			case d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound):
				verdict = "NOISY"
			}
			if verdict != "ok" {
				failed++
			}
			fmt.Fprintf(w, "%-13s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl, d.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
		var metricNames []string
		for name := range a[wl] {
			if exact[name] {
				metricNames = append(metricNames, name)
			}
		}
		sort.Strings(metricNames)
		for _, name := range metricNames {
			all := append(append([]float64(nil), a[wl][name]...), b[wl][name]...)
			same := true
			for _, v := range all {
				same = same && v == all[0]
			}
			if !same {
				failed++
				fmt.Fprintf(w, "%-13s %-18s exact metric differs between runs: %v  DISAGREE\n", wl, name, all)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d rows disagree", failed)
	}
	fmt.Fprintln(w, "sets agree")
	return nil
}
