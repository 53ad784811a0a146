package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail estimated from fewer is noise.
const minBeyond = 10

// median returns the median of xs; xs must not be empty.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples. It refuses when fewer than minBeyond samples lie above the
// chosen rank.
func percentile(samples []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0, 100)", p)
	}
	n := len(samples)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, want at least %d",
			p, n, beyond, minBeyond)
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[rank-1], nil
}
