package sim

import (
	"math"
	"math/rand"
	"testing"
)

// quantizeTwoStep is quantize's two-step form, used for every input before
// the single-multiply path existed: truncate to whole ns, then scale the
// remainder.
func quantizeTwoStep(d Time) (int64, uint64) {
	w := int64(d)
	return w, uint64((float64(d) - float64(w)) * (1 << fracBits))
}

// TestQuantizeMatchesReference: the single-multiply path must land every
// duration on the grid point the two-step form does, on edge values
// around the fast path's bounds and on a fixed-seed sweep of random bit
// patterns and magnitudes.
func TestQuantizeMatchesReference(t *testing.T) {
	check := func(d float64) {
		t.Helper()
		w, f := quantize(Time(d))
		rw, rf := quantizeTwoStep(Time(d))
		if w != rw || f != rf {
			t.Fatalf("quantize(%v [%#x]) = (%d, %d), two-step (%d, %d)",
				d, math.Float64bits(d), w, f, rw, rf)
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, math.SmallestNonzeroFloat64 * 3,
		0x1p-33, 0x1p-32, math.Nextafter(0x1p-32, 0), math.Nextafter(0x1p-32, 1),
		0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 1.5, 2.75, 1e3, 1e6 + 1e-7,
		1 << 30, math.Nextafter(1<<31, 0), 1 << 31, math.Nextafter(1<<31, math.Inf(1)),
		1<<31 + 0.25, 1 << 32, 1 << 52, 1<<52 + 0.5, 1 << 53, 1e18, 1 << 62,
		math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	for _, d := range edges {
		check(d)
		check(-d)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500_000; i++ {
		// Any bit pattern at all: mostly huge, tiny, negative or NaN.
		check(math.Float64frombits(rng.Uint64()))
		// Magnitudes spread evenly in log2 over the fast path and past it.
		check(math.Ldexp(rng.Float64(), rng.Intn(1100)-1070))
		// Small integers plus fractions, as cost-model charges are.
		check(float64(rng.Intn(1<<20)) + rng.Float64())
	}
}
