package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or NaN when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or NaN when xs is empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// fastest returns the smallest value of xs, or NaN when xs is empty.
// It is the gated statistic of every timing series: host noise only adds
// time, so the fastest sample is the one least disturbed.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

// tailLadder lists the percentiles a timing series may report beside
// its median, lowest first.
var tailLadder = []float64{0.90, 0.99, 0.999, 0.9999}

// tailPercentile applies the reporting rule for a timing series of n
// samples: the highest ladder percentile that still leaves at least ten
// samples beyond it. ok is false when even p90 does not (n < 100), in
// which case the series reports its median only.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailLadder {
		// Samples strictly beyond the c-quantile: n·(1−c), rounded down
		// after guarding against 0.1·100 = 9.999… float noise.
		if int(float64(n)*(1-c)+1e-9) >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

// spread is (max − min) ÷ median — the -repeat mode's run-to-run
// measure.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return (hi - lo) / median(xs)
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) would give (the "exclusive" method) —
// the driver's acceptance measure.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// statistics.quantiles, method="exclusive": position k·(n+1)/4
		// in 1-based order statistics; the index is clamped to the
		// sample and the weight taken after clamping, as Python does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return (q(3) - q(1)) / median(s)
}
