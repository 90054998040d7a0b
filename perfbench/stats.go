package main

import (
	"math"
	"sort"
)

// minTail is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail figure always rests on
// more than a handful of observations.
const minTail = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified. NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank q-quantile of sorted and whether it
// may be reported: ok is false unless at least minTail samples lie
// strictly beyond the chosen rank.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || q < 0 || q > 1 {
		return math.NaN(), false
	}
	// The epsilon keeps q·n that should be whole (0.99·1000) from rounding
	// up past it.
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n-1-i >= minTail
}

func sumFloats(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
