package main

import (
	"math"
	"sort"
)

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method — the smallest sample with at least p% of the
// samples at or below it — and the sample count. Empty input yields 0.
func nearestRank(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n
}

// median is the middle sample (mean of the two middle ones for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// window is one slice of a measured phase: num units of one quantity
// (work done, CPU used) per den units of another (seconds, node-steps).
type window struct{ num, den float64 }

// windowedRate estimates a steady rate as the median of per-window
// rates, so a burst of steal or a GC pause costs one window, not the run.
// Windows with a zero denominator are skipped.
func windowedRate(ws []window) float64 {
	rates := make([]float64, 0, len(ws))
	for _, w := range ws {
		if w.den > 0 {
			rates = append(rates, w.num/w.den)
		}
	}
	return median(rates)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
