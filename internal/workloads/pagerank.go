package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
)

// PageRank is the Spark-bench PR workload: power iteration over a random
// graph. The paper uses 78K nodes and 780K edges; the scaled graph keeps
// the 1:10 node:edge ratio at 8K nodes / 80K edges. Edge lists live in
// large partition objects; each iteration materialises a fresh rank
// vector (the RDD-style churn that pressures the collector).
func PageRank() *Spec {
	const (
		threads    = 8
		nodes      = 8192
		edges      = 81920
		partitions = 8
		iters      = 32
		damping    = 0.85
	)
	liveBytes := int64(partitions)*footprint(heap.AllocSpec{Payload: edges / partitions * 8}) +
		2*footprint(heap.AllocSpec{Payload: nodes * 8})
	return &Spec{
		Name:         "PageRank (PR)",
		Suite:        "Spark",
		PaperThreads: 288,
		PaperHeap:    "4 - 6.5 GiB",
		Threads:      threads,
		MinHeapBytes: liveBytes*5/4 + 1<<20,
		Run: func(j *jvm.JVM, seed int64) error {
			return pagerankRun(j, seed, nodes, edges, partitions, iters, damping)
		},
	}
}

// pagerankRun builds the graph once (thread 0) and runs the power
// iteration with per-thread partitions.
func pagerankRun(j *jvm.JVM, seed int64, nodes, edges, partitions, iters int, damping float64) error {
	t0 := j.Thread(0)
	rng := rand.New(rand.NewSource(seed ^ 0x5EED))

	perPart := edges / partitions
	edgeSpec := heap.AllocSpec{Payload: perPart * 8, Class: clsPREdges}
	rankSpec := heap.AllocSpec{Payload: nodes * 8, Class: clsPRRanks}

	// Out-degrees are needed for the contribution split; build the edge
	// partitions (src<<32|dst packed words) and count degrees.
	outDeg := make([]int, nodes)
	parts := make([]*gc.Root, partitions)
	edgeBuf := make([]byte, perPart*8)
	for p := range parts {
		r, err := t0.AllocRooted(edgeSpec)
		if err != nil {
			return err
		}
		for e := 0; e < perPart; e++ {
			src := rng.Intn(nodes)
			dst := rng.Intn(nodes)
			outDeg[src]++
			binary.LittleEndian.PutUint64(edgeBuf[8*e:], uint64(src)<<32|uint64(dst))
		}
		if err := j.Heap.WritePayload(t0.Ctx, r.Obj, 0, 0, edgeBuf); err != nil {
			return err
		}
		parts[p] = r
	}

	ranks := make([]float64, nodes)
	for i := range ranks {
		ranks[i] = 1.0 / float64(nodes)
	}
	rankR, err := t0.AllocRooted(rankSpec)
	if err != nil {
		return err
	}
	if err := writeFloats(t0, rankR.Obj, 0, 0, ranks); err != nil {
		return err
	}

	next := make([]float64, nodes)
	contrib := make([]float64, nodes)
	for it := 0; it < iters; it++ {
		if err := readFloats(t0, rankR.Obj, 0, 0, ranks); err != nil {
			return err
		}
		for i := range contrib {
			if outDeg[i] > 0 {
				contrib[i] = ranks[i] / float64(outDeg[i])
			} else {
				contrib[i] = 0
			}
		}
		base := (1 - damping) / float64(nodes)
		for i := range next {
			next[i] = base
		}
		// Each partition is processed on its own virtual thread.
		for p, pr := range parts {
			t := j.Thread(p % j.Threads())
			if err := j.Heap.ReadPayload(t.Ctx, pr.Obj, 0, 0, edgeBuf); err != nil {
				return err
			}
			for e := 0; e < perPart; e++ {
				w := binary.LittleEndian.Uint64(edgeBuf[8*e:])
				src, dst := int(w>>32), int(w&0xffffffff)
				next[dst] += float64(damping * contrib[src])
			}
			chargeOps(t, 3*float64(perPart), 1.0)
		}
		// Fresh rank vector object; the old one becomes garbage.
		newR, err := t0.AllocRooted(rankSpec)
		if err != nil {
			return err
		}
		if err := writeFloats(t0, newR.Obj, 0, 0, next); err != nil {
			return err
		}
		j.Roots.Remove(rankR)
		rankR = newR

		// Spark recomputes lineage partitions under pressure: rebuild one
		// edge partition per iteration (same edges, fresh object), which
		// is the large-object churn that drives collections.
		p := it % partitions
		fresh, err := t0.AllocRooted(edgeSpec)
		if err != nil {
			return err
		}
		if err := j.Heap.ReadPayload(t0.Ctx, parts[p].Obj, 0, 0, edgeBuf); err != nil {
			return err
		}
		if err := j.Heap.WritePayload(t0.Ctx, fresh.Obj, 0, 0, edgeBuf); err != nil {
			return err
		}
		j.Roots.Remove(parts[p])
		parts[p] = fresh
	}

	// Rank mass is conserved up to the dangling-node leak: total must be
	// positive and at most 1 + epsilon.
	if err := readFloats(t0, rankR.Obj, 0, 0, ranks); err != nil {
		return err
	}
	var total float64
	for _, v := range ranks {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("pagerank: negative or NaN rank")
		}
		total += v
	}
	if total <= 0 || total > 1+1e-6 {
		return fmt.Errorf("pagerank: total rank %v out of range", total)
	}
	// Graph and final ranks stay rooted (live-set convention, fft.go).
	return nil
}
