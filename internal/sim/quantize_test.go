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

// TestTicksMatchAdvance: a duration quantised once with ToTicks and
// settled with AdvanceTicks must leave the clock exactly where Advance of
// the same duration does, from any starting state (so the carry out of
// the remainder is exercised): on the awkward remainders the batching
// tests use, on edges of ToTicks' range, and on a fixed-seed sweep of
// [0, 2^31).
func TestTicksMatchAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(d float64) {
		t.Helper()
		start := Clock{ns: rng.Int63n(1 << 40), frac: uint64(rng.Int63n(1 << fracBits))}
		ticked, advanced := start, start
		ticked.AdvanceTicks(ToTicks(Time(d)))
		advanced.Advance(Time(d))
		if ticked != advanced {
			t.Fatalf("AdvanceTicks(ToTicks(%v [%#x])) from %+v = %+v, Advance gives %+v",
				d, math.Float64bits(d), start, ticked, advanced)
		}
	}
	awkward := []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-9, 0x1p-33, 0x1p-32, math.Nextafter(0x1p-32, 1),
		0.1, 0.3, 0.5, 1.0 / 3, 1.0 / 2.1, 4.0 / 2.1, 8.0 / 34.0, 64.0 / 11.0, 4096.0 / 12.0,
		6, 28, 90, 153, 123456.789, 1e6 + 1e-7, 1 << 30, math.Nextafter(1<<31, 0),
	}
	for _, d := range awkward {
		for i := 0; i < 64; i++ {
			check(d)
		}
	}
	for i := 0; i < 500_000; i++ {
		// Magnitudes spread evenly in log2 over the whole range.
		check(math.Ldexp(rng.Float64(), rng.Intn(1100)-1069))
		// Small integers plus fractions, as cost-model charges are.
		check(float64(rng.Intn(1<<20)) + rng.Float64())
	}
}

// TestBadDurationsPanic: a charge the clock cannot represent — negative,
// NaN, an infinity, or at least 2^63 ns — must panic instead of wrapping
// the clock backwards, and ToTicks rejects everything outside [0, 2^31).
func TestBadDurationsPanic(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	for _, d := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 1 << 63, 1e300, -1, -5e-324, -math.MaxFloat64,
	} {
		c := NewClock(0)
		c.Advance(5)
		if !panics(func() { c.Advance(Time(d)) }) {
			t.Errorf("Advance(%v) did not panic; clock now %v", d, c.Now())
		}
		if c.Now() != 5 {
			t.Errorf("rejected Advance(%v) moved the clock to %v", d, c.Now())
		}
		if !panics(func() { ToTicks(Time(d)) }) {
			t.Errorf("ToTicks(%v) did not panic", d)
		}
	}
	for _, d := range []float64{1 << 31, 1 << 32, 1 << 62} {
		if !panics(func() { ToTicks(Time(d)) }) {
			t.Errorf("ToTicks(%v) did not panic", d)
		}
	}
	// The largest durations each accepts.
	for _, d := range []float64{math.Nextafter(1<<63, 0), 1 << 31, 1e18} {
		if panics(func() { NewClock(0).Advance(Time(d)) }) {
			t.Errorf("Advance(%v) panicked", d)
		}
	}
	if panics(func() { ToTicks(Time(math.Nextafter(1<<31, 0))) }) {
		t.Error("ToTicks just below 2^31 panicked")
	}
}
