package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"unizk/internal/field"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
)

// Speedup scales for the serial-vs-parallel comparison: large enough
// that pool dispatch overhead is negligible against the kernel work.
const (
	speedupLogNTT       = 18
	speedupMerkleLeaves = 1 << 16
)

// KernelSpeedup is one serial-vs-parallel measurement of a prover kernel.
type KernelSpeedup struct {
	Kernel   string
	Size     int
	Serial   time.Duration
	Parallel time.Duration
	Workers  int
}

// SpeedupFactor is Serial/Parallel as a ratio (>1 means parallel wins).
func (k KernelSpeedup) SpeedupFactor() float64 {
	if k.Parallel <= 0 {
		return 0
	}
	return float64(k.Serial) / float64(k.Parallel)
}

// MeasureSpeedups times the NTT and Merkle hot kernels in forced-serial
// mode and on the default pool, returning one measurement per kernel.
// Outputs are discarded; bit-identity between the two modes is the
// differential test layer's job, this is purely wall-clock.
func MeasureSpeedups() []KernelSpeedup {
	workers := parallel.Workers()

	rng := rand.New(rand.NewSource(77))
	vec := make([]field.Element, 1<<speedupLogNTT)
	for i := range vec {
		vec[i] = field.New(rng.Uint64())
	}
	leaves := make([][]field.Element, speedupMerkleLeaves)
	for i := range leaves {
		leaves[i] = make([]field.Element, 4)
		for j := range leaves[i] {
			leaves[i][j] = field.New(rng.Uint64())
		}
	}

	timeIt := func(serial bool, fn func()) time.Duration {
		parallel.SetSerial(serial)
		defer parallel.SetSerial(false)
		start := time.Now()
		fn()
		return time.Since(start)
	}
	nttOnce := func() {
		scratch := make([]field.Element, len(vec))
		copy(scratch, vec)
		parallel.Must(ntt.Transform(context.Background(), scratch, ntt.Spec{}))
	}
	merkleOnce := func() { merkle.Build(leaves, 4) }

	// Warm both paths once (twiddle tables, Poseidon constants, pool
	// goroutines) before timing.
	nttOnce()
	merkleOnce()

	return []KernelSpeedup{
		{
			Kernel: "NTT ForwardNN", Size: 1 << speedupLogNTT,
			Serial:   timeIt(true, nttOnce),
			Parallel: timeIt(false, nttOnce),
			Workers:  workers,
		},
		{
			Kernel: "Merkle Build", Size: speedupMerkleLeaves,
			Serial:   timeIt(true, merkleOnce),
			Parallel: timeIt(false, merkleOnce),
			Workers:  workers,
		},
	}
}

// Speedup renders the serial-vs-parallel comparison of the two dominant
// prover kernels (the software analogue of the paper's kernel speedups in
// Fig. 9, here across CPU cores instead of against the VSA). The ≥2×
// acceptance criterion applies on machines with NumCPU ≥ 4; the report
// always records the worker count so single-core CI runs are
// self-describing.
func (r *Runner) Speedup() (Report, error) {
	ms := MeasureSpeedups()

	tb := &table{header: []string{"Kernel", "Size", "Serial", "Parallel", "Speedup", "Workers"}}
	for _, m := range ms {
		tb.add(m.Kernel, fmt.Sprintf("2^%d", log2int(m.Size)),
			msecs(m.Serial), msecs(m.Parallel),
			times(m.SpeedupFactor()), fmt.Sprintf("%d", m.Workers))
	}

	note := fmt.Sprintf("\nGOMAXPROCS=%d NumCPU=%d; speedup target ≥2.0x applies at NumCPU ≥ 4.\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	return Report{
		ID:    "Speedup",
		Title: "Worker-pool serial vs parallel kernel times",
		Text:  tb.String() + note,
	}, nil
}

func log2int(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
