package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// lowerQuartile is the statistic of the end-to-end timings: the time the
// fastest quarter of the samples stayed within. Interference from the rest
// of the host only ever makes a sample slower, so this stays put while up
// to three quarters of a run are disturbed, where a median gives way at a
// half.
func lowerQuartile(xs []float64) float64 { return quantile(xs, 0.25) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported (choosing-metrics §1): p90 needs 100 samples, p99 1000.
const minBeyond = 10

// supports reports whether a sample of n has minBeyond samples beyond
// percentile p (with a tolerance for 1-p not being exact in binary).
func supports(n int, p float64) bool { return float64(n)*(1-p) >= minBeyond-1e-9 }

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) (exclusive method) does, which is what
// the pipeline uses to judge run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance of xs as a share of its
// median; 0 when the median is 0.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
