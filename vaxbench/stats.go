package main

import (
	"math"
	"sort"
)

// Percentiles here are exact order statistics over raw samples (the
// nearest-rank definition), never histogram bucket bounds: a
// power-of-two bucket can only say "p99 <= 2047", and which bucket a
// tail lands in flips from run to run.

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest sample with at least q*n samples at or below it. It
// returns 0 for no samples and does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q * float64(len(s))))
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1]
}

// median is the nearest-rank median (a real sample, not a midpoint).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio divides, reading 0 when the base is 0 so an idle layer
// reports 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
