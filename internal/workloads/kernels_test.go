package workloads

// Unit tests for the pure computational kernels the workloads are built
// on, independent of the simulated heap.

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/heap"
)

// naiveDFT computes the reference DFT of an interleaved complex signal.
func naiveDFT(in []float64, inverse bool) []float64 {
	n := len(in) / 2
	out := make([]float64, 2*n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var re, im float64
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			re += in[2*j]*c - in[2*j+1]*s
			im += in[2*j]*s + in[2*j+1]*c
		}
		out[2*k], out[2*k+1] = re, im
	}
	return out
}

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		data := make([]float64, 2*n)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		want := naiveDFT(data, false)
		got := append([]float64(nil), data...)
		fft(got, false)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8*float64(n) {
				t.Fatalf("n=%d: fft[%d] = %v, dft = %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(8))
		data := make([]float64, 2*n)
		orig := make([]float64, 2*n)
		for i := range data {
			data[i] = rng.NormFloat64()
			orig[i] = data[i]
		}
		fft(data, false)
		fft(data, true)
		for i := range data {
			if math.Abs(data[i]/float64(n)-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	fft(make([]float64, 6), false)
}

func TestRLERoundTripQuick(t *testing.T) {
	prop := func(data []byte) bool {
		enc := rleEncode(nil, data)
		dec, err := rleDecode(nil, enc, len(data))
		if err != nil {
			return false
		}
		if len(dec) != len(data) {
			return false
		}
		for i := range data {
			if dec[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRLECompressesRuns(t *testing.T) {
	run := make([]byte, 4096)
	enc := rleEncode(nil, run)
	if len(enc) >= len(run)/8 {
		t.Errorf("4K of zeros encoded to %d bytes", len(enc))
	}
	if _, err := rleDecode(nil, []byte{1}, 1); err == nil {
		t.Error("odd-length stream accepted")
	}
	if _, err := rleDecode(nil, []byte{1, 2}, 5); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestLUFactorisationSolves(t *testing.T) {
	// Factor a small diagonally dominant matrix and verify L*U
	// reconstructs it.
	const n = 8
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, n*n)
	orig := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64() - 0.5
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n) // dominance
	}
	copy(orig, a)
	if err := luInPlace(a, n); err != nil {
		t.Fatal(err)
	}
	// Reconstruct L*U.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k <= i && k <= j; k++ {
				var l float64
				if k == i {
					l = 1
				} else {
					l = a[i*n+k]
				}
				if k <= j {
					sum += l * a[k*n+j]
				}
			}
			if math.Abs(sum-orig[i*n+j]) > 1e-9 {
				t.Fatalf("LU reconstruction off at (%d,%d): %v vs %v", i, j, sum, orig[i*n+j])
			}
		}
	}
}

func TestTrsmAndGemmAlgebra(t *testing.T) {
	// X := trsmLower(LU, B) must satisfy L*X = B; then gemmSub must
	// compute C - A*B elementwise.
	const n = 6
	rng := rand.New(rand.NewSource(9))
	lu := make([]float64, n*n)
	for i := range lu {
		lu[i] = rng.Float64() - 0.5
	}
	for i := 0; i < n; i++ {
		lu[i*n+i] += n
	}
	bOrig := make([]float64, n*n)
	for i := range bOrig {
		bOrig[i] = rng.Float64()
	}
	x := append([]float64(nil), bOrig...)
	trsmLower(lu, x, n)
	// L has unit diagonal with sub-diagonal entries from lu.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := x[i*n+j]
			for k := 0; k < i; k++ {
				sum += lu[i*n+k] * x[k*n+j]
			}
			if math.Abs(sum-bOrig[i*n+j]) > 1e-9 {
				t.Fatalf("trsmLower wrong at (%d,%d)", i, j)
			}
		}
	}

	a := make([]float64, n*n)
	bm := make([]float64, n*n)
	c := make([]float64, n*n)
	want := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64()
		bm[i] = rng.Float64()
		c[i] = rng.Float64()
		want[i] = c[i]
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				want[i*n+j] -= a[i*n+k] * bm[k*n+j]
			}
		}
	}
	gemmSub(c, a, bm, n)
	for i := range c {
		if math.Abs(c[i]-want[i]) > 1e-9 {
			t.Fatalf("gemmSub wrong at %d", i)
		}
	}
}

func TestColIndexCoversRows(t *testing.T) {
	const rows = 64
	seen := map[int]bool{}
	for b := 0; b < 4; b++ {
		for k := 0; k < 1024; k++ {
			idx := colIndex(b, k, rows)
			if idx < 0 || idx >= rows {
				t.Fatalf("colIndex out of range: %d", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) < rows*9/10 {
		t.Errorf("sparsity pattern covers only %d/%d columns", len(seen), rows)
	}
}

func TestFindSwapHelpers(t *testing.T) {
	if minInt(3, 5) != 3 || minInt(5, 3) != 3 {
		t.Error("minInt wrong")
	}
	if depthFor(7) != 3 || depthFor(8) != 3 || depthFor(15) != 4 {
		t.Errorf("depthFor: %d %d %d", depthFor(7), depthFor(8), depthFor(15))
	}
	small := heap.AllocSpec{Payload: 100}
	if footprint(small) != int64(small.TotalBytes()) {
		t.Error("small footprint should be exact")
	}
	big := footprint(heap.AllocSpec{Payload: 11 * 4096})
	if big%4096 != 0 {
		t.Errorf("large footprint %d not page-rounded", big)
	}
	if big <= int64(small.TotalBytes()) {
		t.Error("footprint ordering wrong")
	}
}

// checkRadixSort sorts a copy of keys with radixSort and with slices.Sort
// and fails on the first difference.
func checkRadixSort(t *testing.T, name string, keys []uint64) {
	t.Helper()
	want := slices.Clone(keys)
	slices.Sort(want)
	got := slices.Clone(keys)
	radixSort(got, make([]uint64, len(got)))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s (n=%d): radixSort[%d] = %#x, slices.Sort %#x", name, len(keys), i, got[i], want[i])
		}
	}
}

func TestRadixSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := func(n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		return keys
	}
	for _, n := range []int{0, 1, 2, 32 << 10} {
		checkRadixSort(t, "random", random(n))
	}

	// Every pass skipped.
	equal := make([]uint64, 1000)
	for i := range equal {
		equal[i] = 0xdeadbeefcafef00d
	}
	checkRadixSort(t, "all-equal", equal)

	// Only the top byte differs: one pass runs, so the sorted words end
	// in the scratch buffer and are copied back.
	top := make([]uint64, 1000)
	for i := range top {
		top[i] = uint64(rng.Intn(256))<<56 | 0x0011223344556677
	}
	checkRadixSort(t, "top-byte", top)

	sorted := random(5000)
	slices.Sort(sorted)
	checkRadixSort(t, "sorted", sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	checkRadixSort(t, "reversed", reversed)
	checkRadixSort(t, "extremes", []uint64{math.MaxUint64, 0, 1, math.MaxUint64, 0, math.MaxUint64 - 1, 1 << 63})

	// Random slices with duplicates: keys drawn from a small pool, some
	// pools confined to a few low bytes so that the upper passes skip.
	for c := 0; c < 200; c++ {
		pool := random(1 + rng.Intn(64))
		if c%2 == 1 {
			mask := uint64(1)<<(8*(1+rng.Intn(7))) - 1
			for i := range pool {
				pool[i] &= mask
			}
		}
		keys := make([]uint64, rng.Intn(3000))
		for i := range keys {
			keys[i] = pool[rng.Intn(len(pool))]
		}
		checkRadixSort(t, "duplicates", keys)
	}
}

// TestIntn24MatchesIntn: Compress's input draws must stay rng.Intn(24)'s,
// draw for draw and state for state, or the heap words change: two
// generators on one seed stay in step over a million draws at each of
// three seeds.
func TestIntn24MatchesIntn(t *testing.T) {
	for _, seed := range []int64{1, 42, 7} {
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 1_000_000; i++ {
			if g, w := intn24(got), want.Intn(24); g != w {
				t.Fatalf("seed %d draw %d: intn24 = %d, Intn(24) = %d", seed, i, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Errorf("seed %d: generators out of step after the draws: %d vs %d", seed, g, w)
		}
	}
}

// BenchmarkRadixSort sorts one Parallelsort segment (32K random words).
func BenchmarkRadixSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	orig := make([]uint64, 32<<10)
	for i := range orig {
		orig[i] = rng.Uint64()
	}
	keys, tmp := make([]uint64, len(orig)), make([]uint64, len(orig))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, orig)
		radixSort(keys, tmp)
	}
}
