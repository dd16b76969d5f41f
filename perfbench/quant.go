package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs in ascending order without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method), so
// the spreads this benchmark reports match the ones the acceptance check
// computes. Fewer than two values collapse to that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-th percentile (0-100) by nearest rank, the
// definition under which a +Inf sample (a failed chunk) can be the answer.
func nearestRank(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b with 0 for an empty base, so a bypassed layer reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
