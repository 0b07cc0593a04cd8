package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure backed by fewer is one slow op.
const minBeyond = 10

// quantile returns the q-quantile of xs by nearest rank: the smallest sample
// with at least a q share of the samples at or below it. xs is not modified;
// an empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples. The
// small tolerance keeps q·n that is integral in exact arithmetic (0.95·200)
// from rounding up a rank through float error.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond reports how many of n samples lie strictly above the q-quantile's
// rank.
func beyond(n int, q float64) int { return n - rank(n, q) }

// tailOK reports whether the q-quantile of n samples has at least minBeyond
// samples beyond it, the rule for printing a tail percentile.
func tailOK(n int, q float64) bool { return n > 0 && beyond(n, q) >= minBeyond }

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean; an empty slice yields NaN.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
