package main

import "testing"

func TestJudge(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{1.0, 1.3, 0.8, 1.2, 0.9, 1.1, 0.7, 1.25, 0.95, 1.05}
	for _, c := range []struct {
		name         string
		bv, cv       []float64
		higherBetter bool
		want         string
	}{
		{"faster everywhere", base, scale(base, 0.8), false, "improved"},
		{"unchanged", base, base, false, "no worse"},
		{"slower beyond bound", base, scale(base, 1.2), false, "worse"},
		{"slower within bound", base, scale(base, 1.05), false, "no worse"},
		{"higher is better", base, scale(base, 1.2), true, "improved"},
		{"noisy base", noisy, noisy, false, "unresolved"},
		{"noisy but every change run better", noisy, scale(noisy, 0.1), false, "improved"},
	} {
		if got := judge(c.bv, c.cv, c.higherBetter, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
