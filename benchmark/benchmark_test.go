package main

import (
	"context"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{19, 0.50, false}, {20, 0.50, true}, {99, 0.90, false}, {100, 0.90, true},
		{199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// gives [3.5, 24.0, 160.0].
	xs := []float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	q1, q3 := quartiles(xs)
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, want 3.5, 160", q1, q3)
	}
	if m := median(xs); m != 24 {
		t.Errorf("median = %v, want 24", m)
	}
	if got, want := relSpread(xs), (160-3.5)/24; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
}

func TestHostShareIsTakenOut(t *testing.T) {
	before := parseCPUTimes("cpu  1000 5 200 9000 40 3 7 100 0 0")
	if before.busy != 1215 || before.stolen != 100 {
		t.Fatalf("parsed %+v, want busy 1215, stolen 100", before)
	}
	idle := parseCPUTimes("cpu  1000 5 200 9900 40 3 7 100 0 0")
	quiet := parseCPUTimes("cpu  1100 5 200 9000 40 3 7 100 0 0")
	third := parseCPUTimes("cpu  1100 5 200 9000 40 3 7 300 0 0")
	for _, c := range []struct {
		name string
		now  cpuTimes
		want float64
	}{{"idle", idle, 1}, {"no steal", quiet, 1}, {"host ran the cores a third of the time", third, 1.0 / 3},
		{"no /proc/stat", cpuTimes{}, 1}} {
		if got := c.now.keptSince(before); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: kept %v, want %v", c.name, got, c.want)
		}
	}
	if got := parseCPUTimes("intr 1 2 3"); got != (cpuTimes{}) {
		t.Errorf("parsed a line that is not the cpu line: %+v", got)
	}
}

func TestLowerQuartilePerContent(t *testing.T) {
	// Three of eight samples disturbed: the lower quartile does not move.
	clean := []float64{10, 10.2, 10.1, 10.3, 10.2, 10.1, 10.4, 10.3}
	disturbed := []float64{10, 30, 10.1, 25, 10.2, 10.1, 28, 10.3}
	if a, b := lowerQuartile(clean), lowerQuartile(disturbed); math.Abs(a-b) > 0.11 {
		t.Errorf("lower quartile moved from %v to %v", a, b)
	}
	if got := perContent([][]float64{{1, 2, 3, 4, 5}, {10, 20, 30, 40, 50}}, lowerQuartile); got != 22 {
		t.Errorf("perContent = %v, want 2 + 20", got)
	}
}

func TestScheduleAndDrawsFollowTheSeed(t *testing.T) {
	gen := func(seed int64) ([]time.Duration, []draw, []draw) {
		rng := rand.New(rand.NewSource(seed))
		due := schedule(rng, 7, 18*time.Second)
		zipf := newDrawer(rng, 24, 2, 1.1)
		deck := newDrawer(rng, 8, 0, 0)
		var z, d []draw
		for i := 0; i < 400; i++ {
			z = append(z, zipf.next())
			d = append(d, deck.next())
		}
		return due, z, d
	}
	due1, z1, d1 := gen(42)
	due2, z2, d2 := gen(42)
	due3, z3, _ := gen(43)
	if len(due1) != 126 {
		t.Fatalf("schedule has %d arrivals, want rate*duration = 126 whatever the seed", len(due1))
	}
	same := func(a, b []draw) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i := range due1 {
		if due1[i] != due2[i] {
			t.Fatal("same seed, different schedule")
		}
		if i > 0 && due1[i] < due1[i-1] {
			t.Fatal("schedule is not sorted")
		}
	}
	if !same(z1, z2) || !same(d1, d2) {
		t.Error("same seed, different draws")
	}
	if same(z1, z3) || due1[0] == due3[0] {
		t.Error("another seed gave the same inputs")
	}

	// Zipf: rank 0 is the most frequent and both tenants are used; decks:
	// every block of 8 holds every content once.
	count := make([]int, 24)
	tenants := map[int]bool{}
	for _, x := range z1 {
		count[x.inst]++
		tenants[x.tenant] = true
	}
	for k := 1; k < 24; k++ {
		if count[k] > count[0] {
			t.Errorf("rank %d drawn %d times, more than rank 0 (%d)", k, count[k], count[0])
		}
	}
	if len(tenants) != 2 {
		t.Errorf("draws used tenants %v, want both", tenants)
	}
	for b := 0; b+8 <= len(d1); b += 8 {
		seen := map[int]bool{}
		for _, x := range d1[b : b+8] {
			seen[x.inst] = true
		}
		if len(seen) != 8 {
			t.Fatalf("deck block at %d repeats a content: %v", b, d1[b:b+8])
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "submit", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "wait", Start: 25, End: 70, Busy: map[string]float64{"server.prove": 20e-9}}, // overlaps submit by 5
		{ID: 3, Parent: 0, Name: "late", Start: 90, End: 120},                                                 // clipped to the parent
		{ID: 4, Parent: 2, Name: "inner", Start: 30, End: 40},
	}
	got := selfTimes(spans)
	want := map[int]int64{
		0: 100 - (20 + 40 + 10), // children cover [10,70) and [90,100)
		1: 20,
		2: 45 - 10 - 20, // minus child, minus attributed busy time
		3: 30,
		4: 10,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start(noSpan, 0, "x", time.Time{})
	tr.end(id, nil)
	if id != noSpan || tr.snapshot() != nil {
		t.Error("nil tracer recorded a span")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONMatchesTheTables checks that BENCHMARK.json names
// exactly the workloads and metrics the program emits.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, catalogue has %q", i, bf.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q: name or why outside the schema's limits", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, i int, d metricDef, name, unit, better string) {
		if name != d.Name || unit != d.Unit || better != d.Better {
			t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, table has %s/%s/%s",
				kind, i, name, unit, better, d.Name, d.Unit, d.Better)
		}
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("%s metric %q (unit %q): bad or repeated name, or bad unit", kind, d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s metric %q: better = %q", kind, d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, tables have %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, d := range endToEnd {
		e := bf.EndToEnd[i]
		check("end-to-end", i, d, e.Name, e.Unit, e.Better)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds")
	}
	for i, d := range perLayer {
		e := bf.PerLayer[i]
		check("per-layer", i, d, e.Name, e.Unit, e.Better)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Error("too many metrics for the schema")
	}
}

func TestEveryInstanceIsPinned(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range allInstances(workloads, smokeWorkloads) {
		if p, ok := pins[in.String()]; !ok || p.Tries <= 0 || len(p.SHA256) != 64 {
			t.Errorf("%s has no usable pin; run the program with -update-pins", in)
		}
	}
}

// TestSmoke runs one direct and one served workload end to end on 2^5
// instances, untraced and traced, and checks every declared metric is
// emitted and the proofs are correct and comparable.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the server binaries and proves")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "unizk/cmd/unizk-server", "unizk/cmd/unizk-cluster")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the server binaries: %v\n%s", err, out)
	}
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null // run prints its result line
	defer func() { os.Stdout = stdout; null.Close() }()

	for _, c := range []struct {
		workload string
		trace    bool
	}{{"prove-grind", false}, {"serve-hot", false}, {"serve-cold", true}} {
		cfg := &config{workload: c.workload, seed: 7, seconds: 1.5, trace: c.trace, smoke: true,
			outDir: t.TempDir(), binDir: bin}
		ok, err := run(context.Background(), cfg)
		if err != nil || !ok {
			t.Fatalf("%s trace=%v: ok=%v err=%v", c.workload, c.trace, ok, err)
		}
		set, err := readSet(cfg.outPath("last-" + c.workload + ".json"))
		if err != nil || len(set) != 1 {
			t.Fatalf("%s: reading the stored result: %v (%d records)", c.workload, err, len(set))
		}
		rec := set[0]
		if !rec.Correct || !rec.Comparable || !rec.Valid || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s: %+v", c.workload, rec)
		}
		defs := endToEnd
		if c.trace {
			defs = perLayer
		}
		if len(rec.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics emitted, %d declared", c.workload, len(rec.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := rec.Metrics[d.Name]
			if !ok || v.Unit != d.Unit {
				t.Errorf("%s: metric %s missing or with unit %q", c.workload, d.Name, v.Unit)
			}
			if !c.trace && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", c.workload, d.Name, v.Value)
			}
		}
		if c.trace {
			if _, err := os.Stat(cfg.outPath("trace-" + c.workload + ".json")); err != nil {
				t.Errorf("%s: no trace file: %v", c.workload, err)
			}
			if cov := rec.Metrics["serverclient.span_coverage"].Value; cov < 0.98 {
				t.Errorf("%s: client spans cover %.3f of request latency, want at least 0.98", c.workload, cov)
			}
		}
	}
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lat []float64, bytes float64) string {
		path := filepath.Join(dir, name)
		for i, v := range lat {
			rec := &record{Workload: "prove-merkle", Seed: int64(i), Comparable: true, Valid: true,
				result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
					"prove_p25_s": {Value: v, Unit: "s"},
					"proof_bytes": {Value: bytes, Unit: "B"},
				}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a", []float64{100, 101, 99, 100, 102}, 5000)
	same := write("b", []float64{101, 100, 102, 99, 103}, 5000)
	slow := write("c", []float64{130, 131, 129, 130, 132}, 5000)
	grew := write("d", []float64{100, 101, 99, 100, 102}, 5001)
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer null.Close()
	if err := agreeSets(null, "../BENCHMARK.json", base, same); err != nil {
		t.Errorf("sets within the bound disagree: %v", err)
	}
	if err := agreeSets(null, "../BENCHMARK.json", base, slow); err == nil {
		t.Error("a 30% slower set agrees")
	}
	if err := agreeSets(null, "../BENCHMARK.json", slow, base); err != nil {
		t.Errorf("a faster second set is not worse: %v", err)
	}
	if err := agreeSets(null, "../BENCHMARK.json", base, grew); err == nil {
		t.Error("a changed exact metric agrees")
	}
}
