// Package workloads implements the paper's Table II benchmark programs as
// mutators against the simulated heap: the SPECjvm2008 kernels (FFT,
// Sparse/SpMV, SOR, LU, Compress, Sigverify, CryptoAES), PageRank from
// Spark-bench, Bisort from JOlden, Parallelsort from the OpenJDK suite,
// and the LRU-cache microbenchmark used for the scalability studies.
//
// Every workload performs its real computation (the FFT really transforms,
// the sorts really sort, signatures really verify) with its data living in
// simulated-heap objects, so allocation pressure, object-size
// distributions, and memory traffic drive the garbage collectors exactly
// as the paper's evaluation intends. Paper-scale inputs (hundreds of
// threads, tens of GiB) are scaled to laptop scale; the Spec records both
// the paper's configuration and the scaled one.
package workloads

import (
	"fmt"
	"math/rand"
	"unsafe"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/mem"
)

// Spec describes one benchmark configuration (one Table II row, or a
// size variant used in Figs. 11/15 and Table III).
type Spec struct {
	// Name is the benchmark identifier, e.g. "Sparse.large/4".
	Name string
	// Suite is the originating suite (Table II column 2).
	Suite string
	// PaperThreads and PaperHeap document the paper's configuration
	// (Table II columns 3 and 4).
	PaperThreads int
	PaperHeap    string

	// Threads is the scaled mutator thread count used here.
	Threads int
	// MinHeapBytes approximates the scaled live set; experiments size the
	// heap at a factor (1.2x, 2x) of it.
	MinHeapBytes int64

	// Run executes the benchmark on j with the given seed.
	Run func(j *jvm.JVM, seed int64) error
}

// MinHeap returns the heap size for a given factor of the minimum.
func (s *Spec) MinHeap(factor float64) int64 {
	return int64(float64(s.MinHeapBytes) * factor)
}

// Registry returns all benchmark specs in a stable order.
func Registry() []*Spec {
	return []*Spec{
		FFTLarge(1), FFTLarge(8), FFTLarge(16),
		SparseLarge(1), SparseLarge(2), SparseLarge(4),
		SORLargeX10(),
		LULarge(),
		Compress(),
		Sigverify(),
		CryptoAES(),
		PageRank(),
		Bisort(),
		Parallelsort(),
		LRUCache(),
	}
}

// ByName finds a spec by name.
func ByName(name string) (*Spec, error) {
	for _, s := range Registry() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Names lists all registered benchmark names.
func Names() []string {
	regs := Registry()
	names := make([]string, len(regs))
	for i, s := range regs {
		names[i] = s.Name
	}
	return names
}

// --- per-thread driver ------------------------------------------------------

// seededThreads executes fn once per virtual mutator thread,
// sequentially, each with its own deterministic PRNG mixing the caller's
// seed with the thread index. Application time is the maximum thread
// clock, which the JVM accounts for.
func seededThreads(j *jvm.JVM, seed int64, fn func(t *jvm.Thread, rng *rand.Rand) error) error {
	for i := 0; i < j.Threads(); i++ {
		t := j.Thread(i)
		rng := rand.New(rand.NewSource(seed ^ (int64(i)*0x9E3779B9 + 1)))
		if err := fn(t, rng); err != nil {
			return fmt.Errorf("thread %d: %w", i, err)
		}
	}
	return nil
}

// --- compute-cost and payload helpers ----------------------------------------

// chargeOps advances the thread's clock by the CPU time of n abstract
// operations at the given cycles-per-op density. Memory traffic is charged
// separately by the heap accessors; this models the arithmetic.
func chargeOps(t *jvm.Thread, n float64, cyclesPerOp float64) {
	t.Ctx.Clock.Advance(t.Ctx.Cost.CyclesNs(n * cyclesPerOp))
}

// floatWords reinterprets a float slice as its IEEE-754 bit patterns
// without copying. A uint64 store through the alias followed by a float64
// read is exactly math.Float64frombits, on any host, so the stream
// accessors below are bit-identical to the old decode/encode loops.
func floatWords(fs []float64) []uint64 {
	if len(fs) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&fs[0])), len(fs))
}

// readFloats fills dst from the object's payload (charged bulk read).
func readFloats(t *jvm.Thread, o heap.Object, numRefs, off int, dst []float64) error {
	return t.J.Heap.ReadPayloadStream(t.Ctx, o, numRefs, off, floatWords(dst))
}

// writeFloats stores src into the object's payload (charged bulk write).
func writeFloats(t *jvm.Thread, o heap.Object, numRefs, off int, src []float64) error {
	return t.J.Heap.WritePayloadStream(t.Ctx, o, numRefs, off, floatWords(src))
}

// checksum folds a payload into a 64-bit FNV-1a digest (charged bulk
// read), used by Compress/Sigverify-style kernels.
func checksum(t *jvm.Thread, o heap.Object, numRefs, n int) (uint64, error) {
	buf := t.Scratch(n)
	if err := t.J.Heap.ReadPayload(t.Ctx, o, numRefs, 0, buf); err != nil {
		return 0, err
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range buf {
		h = (h ^ uint64(b)) * prime
	}
	chargeOps(t, float64(n), 1.0)
	return h, nil
}

// fillPayload writes a deterministic pattern into a payload (charged).
func fillPayload(t *jvm.Thread, o heap.Object, numRefs, n int, seed uint64) error {
	buf := t.Scratch(n)
	s := seed
	for i := range buf {
		s = s*6364136223846793005 + 1442695040888963407
		buf[i] = byte(s >> 56)
	}
	return t.J.Heap.WritePayload(t.Ctx, o, numRefs, 0, buf)
}

// footprint returns an object's heap footprint including the page
// padding that the SwapVA allocation rule adds to swappable objects —
// the basis of honest MinHeapBytes estimates.
func footprint(spec heap.AllocSpec) int64 {
	n := int64(spec.TotalBytes())
	if n >= int64(core.DefaultThresholdPages)*mem.PageSize {
		n = (n + mem.PageMask) &^ int64(mem.PageMask)
	}
	return n
}
