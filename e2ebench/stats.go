package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between the closest ranks: rank (n-1)*p/100, counted from
// 0 in sorted order. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := float64(len(s)-1) * p / 100
	lo := int(math.Floor(rank))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// best returns, for each operation, its lowest time over the builds
// (xss[build][op], NaN where the operation failed), NaN where it failed
// in every build. On a machine shared with other tenants the speed of the
// CPUs swings from one fraction of a second to the next; a slowdown from
// outside the program only ever lengthens an operation, and it moves
// an operation's best time only once it has hit that operation in every
// build. A change to the program moves every build.
func best(xss [][]float64) []float64 {
	out := make([]float64, len(xss[0]))
	for i := range out {
		out[i] = math.NaN()
		for _, xs := range xss {
			if x := xs[i]; !math.IsNaN(x) && (math.IsNaN(out[i]) || x < out[i]) {
				out[i] = x
			}
		}
	}
	return out
}

// rate is the operations completed per second of busy time, given each
// operation's busy time in milliseconds.
func rate(completed float64, busyMS []float64) float64 {
	sum := 0.0
	for _, b := range busyMS {
		sum += b
	}
	return completed / (sum / 1e3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
