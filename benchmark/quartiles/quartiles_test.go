package quartiles

import "testing"

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestOfMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1.5, 2.5, 10, 0.5, 7, 3, 9, 4, 8, 6}, 2.25, 5, 8.25},
	} {
		q1, m, q3 := Of(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("Of(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
