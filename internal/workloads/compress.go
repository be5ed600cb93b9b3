package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/heap"
	"repro/internal/jvm"
)

// Compress is the SPECjvm2008 compress benchmark: repeated compression of
// large byte buffers. The kernel is a real run-length + delta coder whose
// input and output buffers are 256 KB-class heap objects churned every
// round; each round decompresses again and verifies the round trip.
func Compress() *Spec {
	const (
		threads = 8
		inBytes = 256 << 10
		iters   = 14
	)
	// Per thread only the last round's input+output stay live; the
	// running thread holds one extra in+out transient.
	liveBytes := int64(threads)*(footprint(heap.AllocSpec{Payload: inBytes})+int64(inBytes)/4) +
		2*footprint(heap.AllocSpec{Payload: inBytes})
	return &Spec{
		Name:         "Compress",
		Suite:        "SPECjvm2008",
		PaperThreads: 640,
		PaperHeap:    "19 - 32 GiB",
		Threads:      threads,
		MinHeapBytes: liveBytes*5/4 + 1<<20,
		Run: func(j *jvm.JVM, seed int64) error {
			return seededThreads(j, seed, func(t *jvm.Thread, rng *rand.Rand) error {
				return compressThread(t, rng, inBytes, iters)
			})
		},
	}
}

// intn24 is rng.Intn(24), draw for draw: Int31n's rejection loop with
// its bound and modulus folded to constants, where Intn divides by a
// variable n on every call.
func intn24(rng *rand.Rand) int {
	const bound = 1<<31 - 1 - (1<<31)%24
	v := rng.Int31()
	for v > bound {
		v = rng.Int31()
	}
	return int(v % 24)
}

func compressThread(t *jvm.Thread, rng *rand.Rand, inBytes, iters int) error {
	inSpec := heap.AllocSpec{Payload: inBytes, Class: clsCompressIn}
	data := make([]byte, inBytes)
	src := make([]byte, inBytes)
	var encBuf, encBack, decBuf []byte
	for it := 0; it < iters; it++ {
		inR, err := t.AllocRooted(inSpec)
		if err != nil {
			return err
		}
		// Compressible input: runs of slowly varying bytes.
		v := byte(rng.Intn(256))
		for i := range data {
			if intn24(rng) == 0 {
				v = byte(rng.Intn(256))
			}
			data[i] = v
		}
		if err := t.J.Heap.WritePayload(t.Ctx, inR.Obj, 0, 0, data); err != nil {
			return err
		}

		// Compress: read back through the heap, encode, store output.
		if err := t.J.Heap.ReadPayload(t.Ctx, inR.Obj, 0, 0, src); err != nil {
			return err
		}
		enc := rleEncode(encBuf[:0], src)
		encBuf = enc
		chargeOps(t, float64(inBytes), 1.5)
		outR, err := t.AllocRooted(heap.AllocSpec{Payload: len(enc), Class: clsCompressOut})
		if err != nil {
			return err
		}
		if err := t.J.Heap.WritePayload(t.Ctx, outR.Obj, 0, 0, enc); err != nil {
			return err
		}

		// Decompress from the heap copy and verify the round trip.
		if cap(encBack) < len(enc) {
			encBack = make([]byte, len(enc))
		}
		encBack = encBack[:len(enc)]
		if err := t.J.Heap.ReadPayload(t.Ctx, outR.Obj, 0, 0, encBack); err != nil {
			return err
		}
		dec, err := rleDecode(decBuf[:0], encBack, inBytes)
		if err != nil {
			return err
		}
		decBuf = dec
		chargeOps(t, float64(inBytes), 1.0)
		for i := range dec {
			if dec[i] != src[i] {
				return fmt.Errorf("compress: round trip mismatch at %d on iteration %d", i, it)
			}
		}
		// Keep the last round's buffers rooted (live-set convention).
		if it < iters-1 {
			t.J.Roots.Remove(inR)
			t.J.Roots.Remove(outR)
		}
	}
	return nil
}

// rleEncode is a (value, runLength) byte coder with 255-run caps,
// appending to out (callers pass a reusable buffer resliced to zero).
func rleEncode(out, src []byte) []byte {
	for i := 0; i < len(src); {
		v := src[i]
		run := 1
		for i+run < len(src) && src[i+run] == v && run < 255 {
			run++
		}
		out = append(out, v, byte(run))
		i += run
	}
	return out
}

func rleDecode(out, enc []byte, want int) ([]byte, error) {
	if len(enc)%2 != 0 {
		return nil, fmt.Errorf("compress: truncated stream")
	}
	for i := 0; i < len(enc); i += 2 {
		v, run := enc[i], int(enc[i+1])
		for k := 0; k < run; k++ {
			out = append(out, v)
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("compress: decoded %d bytes, want %d", len(out), want)
	}
	return out, nil
}
