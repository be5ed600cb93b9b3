package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
)

// FFTLarge is the SPECjvm2008 scimark.fft.large kernel: repeated complex
// FFTs over arrays averaging 64 KB (the paper's cited mean object size),
// implemented as a real iterative radix-2 transform whose data lives in
// simulated-heap objects. div selects the paper's input-size variants:
// 1 = FFT.large, 8 = FFT.large/8, 16 = FFT.large/16.
func FFTLarge(div int) *Spec {
	if div != 1 && div != 8 && div != 16 {
		panic(fmt.Sprintf("workloads: unsupported FFT divisor %d", div))
	}
	name := "FFT.large"
	if div != 1 {
		name = fmt.Sprintf("FFT.large/%d", div)
	}
	points := 4096 / div      // complex points per array
	payload := points * 2 * 8 // interleaved re/im float64
	const threads = 8         // scaled from the paper's 576 threads
	const window = 8          // live arrays per thread (pipeline depth)
	// Smaller variants run more rounds, like the paper's fixed-duration
	// harness, so every variant produces comparable allocation volume.
	iters := 56 * div
	liveBytes := int64(threads) * int64(window) * footprint(heap.AllocSpec{Payload: payload})
	return &Spec{
		Name:         name,
		Suite:        "SPECjvm2008",
		PaperThreads: 576,
		PaperHeap:    "19.2 - 40 GiB",
		Threads:      threads,
		MinHeapBytes: liveBytes*5/4 + 1<<20,
		Run: func(j *jvm.JVM, seed int64) error {
			return seededThreads(j, seed, func(t *jvm.Thread, rng *rand.Rand) error {
				return fftThread(t, rng, points, iters, window)
			})
		},
	}
}

func fftThread(t *jvm.Thread, rng *rand.Rand, points, iters, window int) error {
	payload := points * 2 * 8
	spec := heap.AllocSpec{Payload: payload, Class: clsFFT}

	in, err := t.AllocRooted(spec)
	if err != nil {
		return err
	}
	// A window of recent signal arrays stays live, modelling the
	// pipeline of outstanding transforms the paper's threaded harness
	// keeps in flight.
	var ring []*gc.Root
	data := make([]float64, 2*points)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	if err := writeFloats(t, in.Obj, 0, 0, data); err != nil {
		return err
	}
	// Each round applies forward FFT, inverse FFT, and normalisation, so
	// the signal returns to itself: its energy is an invariant that every
	// GC in between must preserve.
	wantEnergy := energy(data)

	var out *gc.Root
	for it := 0; it < iters; it++ {
		outR, err := t.AllocRooted(spec)
		if err != nil {
			return err
		}
		if err := readFloats(t, in.Obj, 0, 0, data); err != nil {
			return err
		}
		fft(data, false)
		fft(data, true)
		inv := 1 / float64(points)
		for i := range data {
			data[i] *= inv
		}
		chargeOps(t, float64(10*float64(points)*math.Log2(float64(points)))+float64(2*points), 1.0)
		if err := writeFloats(t, outR.Obj, 0, 0, data); err != nil {
			return err
		}
		ring = append(ring, in)
		if len(ring) >= window {
			t.J.Roots.Remove(ring[0])
			ring = ring[1:]
		}
		in = outR
		out = outR
	}
	_ = out
	if err := readFloats(t, in.Obj, 0, 0, data); err != nil {
		return err
	}
	got := energy(data)
	if relErr := math.Abs(got-wantEnergy) / wantEnergy; relErr > 1e-6 {
		return fmt.Errorf("fft: energy drifted by %.2g (data corrupted?)", relErr)
	}
	// The final array stays rooted: virtual threads run one after another,
	// and keeping each thread's working set live models the coexisting
	// live sets of truly concurrent threads (all workloads follow this
	// convention; MinHeapBytes accounts for it).
	return nil
}

// energy returns the squared L2 norm of an interleaved complex signal.
func energy(data []float64) float64 {
	var e float64
	for _, v := range data {
		e += float64(v * v)
	}
	return e
}

// fft performs an in-place radix-2 complex FFT on interleaved re/im data.
// inverse selects the conjugate transform (unnormalised).
func fft(data []float64, inverse bool) {
	n := len(data) / 2
	if n&(n-1) != 0 {
		panic("fft: length not a power of two")
	}
	// Bit reversal permutation.
	for i, jdx := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; jdx&bit != 0; bit >>= 1 {
			jdx ^= bit
		}
		jdx |= bit
		if i < jdx {
			data[2*i], data[2*jdx] = data[2*jdx], data[2*i]
			data[2*i+1], data[2*jdx+1] = data[2*jdx+1], data[2*i+1]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			curRe, curIm := 1.0, 0.0
			half := length / 2
			for k := 0; k < half; k++ {
				a, b := start+k, start+k+half
				aRe, aIm := data[2*a], data[2*a+1]
				bRe := float64(data[2*b]*curRe) - float64(data[2*b+1]*curIm)
				bIm := float64(data[2*b]*curIm) + float64(data[2*b+1]*curRe)
				data[2*a], data[2*a+1] = aRe+bRe, aIm+bIm
				data[2*b], data[2*b+1] = aRe-bRe, aIm-bIm
				curRe, curIm = float64(curRe*wRe)-float64(curIm*wIm), float64(curRe*wIm)+float64(curIm*wRe)
			}
		}
	}
}
