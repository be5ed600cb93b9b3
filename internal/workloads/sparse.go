package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
)

// SparseLarge is the SPECjvm2008 scimark.sparse.large kernel: sparse
// matrix-vector products (SpMV) over CSR-style value blocks averaging
// 50 KB, the paper's second large-object exemplar. div selects the
// variants of Figs. 11/15 and Table III: 1 = Sparse.large,
// 2 = Sparse.large/2, 4 = Sparse.large/4.
func SparseLarge(div int) *Spec {
	if div != 1 && div != 2 && div != 4 {
		panic(fmt.Sprintf("workloads: unsupported Sparse divisor %d", div))
	}
	name := "Sparse.large"
	if div != 1 {
		name = fmt.Sprintf("Sparse.large/%d", div)
	}
	// The variants divide the *input size*: the default CSR value blocks
	// are ~200 KB, so even Sparse.large/4's 50 KB blocks remain above the
	// ten-page swapping threshold — as in the paper, where Sparse.large/4
	// still gains 70.9% but less than the full-size run.
	nnzPerBlock := 32768 / div
	const threads, blocks = 6, 6
	iters := 20 * div // fixed-duration harness: smaller objects, more rounds
	rows := 512
	liveBytes := int64(threads) * (int64(blocks)*footprint(heap.AllocSpec{Payload: nnzPerBlock * 8}) +
		2*footprint(heap.AllocSpec{Payload: rows * 8}))
	return &Spec{
		Name:         name,
		Suite:        "SPECjvm2008",
		PaperThreads: 576,
		PaperHeap:    "5 - 8.5 GiB",
		Threads:      threads,
		MinHeapBytes: liveBytes*5/4 + 1<<20,
		Run: func(j *jvm.JVM, seed int64) error {
			return seededThreads(j, seed, func(t *jvm.Thread, rng *rand.Rand) error {
				return sparseThread(t, rng, nnzPerBlock, blocks, rows, iters)
			})
		},
	}
}

// sparseThread runs y = A·x products. Each block stores nnz values; the
// column index of value k in block b is a deterministic hash, so the
// matrix is reproducible without storing the index arrays.
func sparseThread(t *jvm.Thread, rng *rand.Rand, nnz, blocks, rows, iters int) error {
	blockSpec := heap.AllocSpec{Payload: nnz * 8, Class: clsSparseBlock}
	vecSpec := heap.AllocSpec{Payload: rows * 8, Class: clsSparseVec}

	blockRoots := make([]*gc.Root, blocks)
	vals := make([]float64, nnz)
	for b := range blockRoots {
		r, err := t.AllocRooted(blockSpec)
		if err != nil {
			return err
		}
		for i := range vals {
			vals[i] = 1 + float64(rng.Float64())
		}
		if err := writeFloats(t, r.Obj, 0, 0, vals); err != nil {
			return err
		}
		blockRoots[b] = r
	}
	xR, err := t.AllocRooted(vecSpec)
	if err != nil {
		return err
	}
	x := make([]float64, rows)
	for i := range x {
		x[i] = 1.0 // with A > 0 this makes every y entry strictly positive
	}
	if err := writeFloats(t, xR.Obj, 0, 0, x); err != nil {
		return err
	}

	// The sparsity pattern is iteration-invariant: value k in block b
	// always hits row k%rows and column colIndex(b,k,rows). Precomputing
	// both tables keeps the hash and integer divisions out of the SpMV
	// inner loop — a host-side speedup only, the products (and everything
	// simulated) are unchanged.
	rowOf := make([]int32, nnz)
	for k := range rowOf {
		rowOf[k] = int32(k % rows)
	}
	colOf := make([][]int32, blocks)
	for b := range colOf {
		c := make([]int32, nnz)
		for k := range c {
			c[k] = int32(colIndex(b, k, rows))
		}
		colOf[b] = c
	}

	y := make([]float64, rows)
	for it := 0; it < iters; it++ {
		newY, err := t.AllocRooted(vecSpec)
		if err != nil {
			return err
		}
		for i := range y {
			y[i] = 0
		}
		if err := readFloats(t, xR.Obj, 0, 0, x); err != nil {
			return err
		}
		for b, br := range blockRoots {
			if err := readFloats(t, br.Obj, 0, 0, vals); err != nil {
				return err
			}
			cb := colOf[b]
			for k, v := range vals {
				// nnz >= rows, so every row is touched
				y[rowOf[k]] += float64(v * x[cb[k]])
			}
			chargeOps(t, 2*float64(nnz), 1.0)
		}
		// SpMV of a strictly positive matrix with positive x keeps y
		// strictly positive — a cheap integrity check across GCs.
		for i, v := range y {
			if v <= 0 || math.IsNaN(v) {
				return fmt.Errorf("sparse: y[%d] = %v after iteration %d", i, v, it)
			}
		}
		// Normalise so the vector neither explodes nor vanishes.
		norm := 0.0
		for _, v := range y {
			norm += v
		}
		scale := float64(rows) / norm
		for i := range y {
			y[i] *= scale
		}
		if err := writeFloats(t, newY.Obj, 0, 0, y); err != nil {
			return err
		}
		// Feed back: next x is this y; the previous x becomes garbage.
		t.J.Roots.Remove(xR)
		xR = newY
		// Rebuild one block every other iteration: large-object churn.
		if it%2 == 1 {
			b := it / 2 % blocks
			nr, err := t.AllocRooted(blockSpec)
			if err != nil {
				return err
			}
			for i := range vals {
				vals[i] = 1 + float64(rng.Float64())
			}
			if err := writeFloats(t, nr.Obj, 0, 0, vals); err != nil {
				return err
			}
			t.J.Roots.Remove(blockRoots[b])
			blockRoots[b] = nr
		}
	}
	return nil
}

// colIndex is the deterministic sparsity pattern.
func colIndex(block, k, rows int) int {
	h := uint64(block)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return int(h % uint64(rows))
}
