// Package quartiles computes the order statistics the benchmark reports:
// quartiles by the same rule as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method), so spreads computed here match the
// ones computed from the benchmark's JSON output with the standard
// library.
package quartiles

import "sort"

// Of returns the first quartile, the median and the third quartile of xs.
// xs is not modified. A single value is its own quartiles; an empty slice
// yields zeros.
func Of(xs []float64) (q1, median, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	return cut(s, 1), Median(s), cut(s, 3)
}

// cut is the i-th of the three exclusive-method quartile cut points of
// the sorted sample s (len(s) >= 2).
func cut(s []float64, i int) float64 {
	n := len(s)
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// Median returns the median of xs (0 for an empty slice).
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
